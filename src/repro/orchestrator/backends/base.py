"""Shared scheduler machinery for the pluggable execution backends.

Three pieces live here because every backend needs them:

* :func:`execute_job` — run one campaign to completion in the current
  process, compiling through the process-local compile cache
  (:func:`repro.compiler.compile_cached`);
* :class:`ExecutionBackend` — the protocol a backend implements (validate
  the batch, run it, expose run-level ``stats``);
* :class:`SchedulerCore` — the result-side bookkeeping of a
  process-based scheduler (today the pool): the ``fork`` start-method
  context, the shared results queue, first-wins settlement, and a
  *blocking* drain that sleeps in ``Queue.get(timeout=...)`` instead of
  spinning on a poll interval.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback

from repro.compiler.cache import compile_cache_stats, compile_cached
from repro.core.fuzzer import Fuzzer
from repro.orchestrator.jobs import CampaignJob, JobOutcome
from repro.telemetry import metrics as _metrics
from repro.telemetry.progress import (
    DEFAULT_HEARTBEAT_EVERY,
    TelemetrySession,
)

#: scheduler sweep interval (seconds): the upper bound on how long the
#: scheduler blocks waiting for a result before checking timeouts and
#: dead workers
DEFAULT_SWEEP = 0.05

#: grace period for draining a cleanly-exited worker's queued result
DRAIN_GRACE = 2.0


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def execute_job(job: CampaignJob, checkpoint_every: int | None = None,
                checkpoint_path=None) -> JobOutcome:
    """Run one campaign to completion in this process.

    Compilation goes through the process-local compile cache, so a
    long-lived worker executing many jobs over the same contract compiles
    it once.

    With ``checkpoint_every``/``checkpoint_path`` the campaign persists a
    mid-flight checkpoint to ``checkpoint_path`` every N executions, and
    — when a valid checkpoint (matching the job's fingerprint) is already
    there — *resumes* from it instead of starting over.  The engine's
    determinism guarantee makes the resumed result byte-identical, so
    cached results and resumed results are interchangeable.  The
    checkpoint is consumed on completion."""
    from repro.orchestrator.store import CheckpointSession

    start = time.perf_counter()
    try:
        artifact = compile_cached(job.source, job.contract)
        fuzzer = None
        session = None
        if checkpoint_path is not None:
            session = CheckpointSession(checkpoint_path, job.fingerprint(),
                                        checkpoint_every)
            checkpoint = session.load()
            if checkpoint is not None:
                fuzzer = Fuzzer.resume(checkpoint, artifact=artifact)
        if fuzzer is None:
            fuzzer = Fuzzer(artifact, job.build_config(),
                            job.supported_set())
        result = fuzzer.run(**(session.run_kwargs() if session else {}))
        if session is not None:
            session.complete()
        return JobOutcome(job=job, status="ok", result=result,
                          elapsed=time.perf_counter() - start)
    except Exception:
        return JobOutcome(job=job, status="error",
                          error=traceback.format_exc(),
                          elapsed=time.perf_counter() - start)


def execute_with_cache_delta(job: CampaignJob,
                             checkpoint_every: int | None = None,
                             checkpoint_path=None) -> tuple:
    """Execute one job and measure the compile-cache hit/miss delta it
    caused; every backend reports these deltas into its run stats."""
    before = compile_cache_stats()
    outcome = execute_job(job, checkpoint_every=checkpoint_every,
                          checkpoint_path=checkpoint_path)
    after = compile_cache_stats()
    return outcome, {"cache_hits": after["hits"] - before["hits"],
                     "cache_misses": after["misses"] - before["misses"]}


def heartbeat_wire(snapshot) -> dict:
    """The results-queue record for one worker heartbeat.  Tagged with
    ``kind`` so :meth:`SchedulerCore._receive` can intercept it before
    outcome settlement (result records carry no ``kind``)."""
    return {"kind": "heartbeat", "job_id": snapshot.job_id,
            "worker": snapshot.worker, "snapshot": snapshot.to_wire()}


def execute_to_wire(job_data: dict, heartbeat_sink=None,
                    worker: int | None = None) -> dict:
    """Worker-side helper: execute a serialized job and build its wire
    record, annotated with the compile-cache delta.

    ``job_data`` may carry transport envelopes — scheduler-side state
    that is not part of the job's identity (neither enters the
    fingerprint):

    * ``_checkpoint`` (``{"every": N, "path": str}``) — mid-campaign
      checkpointing;
    * ``_telemetry`` (``{"heartbeat_every": s}``) — run the job inside a
      :class:`~repro.telemetry.progress.TelemetrySession`: the wire
      record gains the job's registry delta under ``telemetry``, and
      ``heartbeat_sink(snapshot)`` receives periodic progress snapshots
      while the campaign runs.
    """
    job_data = dict(job_data)
    transport = job_data.pop("_checkpoint", None) or {}
    telemetry = job_data.pop("_telemetry", None)
    job = CampaignJob.from_dict(job_data)
    if telemetry is None:
        outcome, delta = execute_with_cache_delta(
            job, checkpoint_every=transport.get("every"),
            checkpoint_path=transport.get("path"))
    else:
        with TelemetrySession(
                job.job_id, heartbeat_sink=heartbeat_sink,
                heartbeat_every=telemetry.get("heartbeat_every",
                                              DEFAULT_HEARTBEAT_EVERY),
                worker=worker) as session:
            outcome, delta = execute_with_cache_delta(
                job, checkpoint_every=transport.get("every"),
                checkpoint_path=transport.get("path"))
        outcome.telemetry = session.delta
    wire = outcome.to_wire()
    wire.update(delta)
    return wire


class ExecutionBackend:
    """One strategy for executing a batch of campaign jobs.

    Subclasses set :attr:`name` and implement ``_run(jobs, progress)``
    returning one :class:`JobOutcome` per job **in job order**.  All
    backends accept the same knobs; a backend rejects the ones it cannot
    honour (inline has no process to kill on ``job_timeout`` or to retire
    on ``recycle_after``) instead of silently ignoring them.
    """

    name = "abstract"

    def __init__(self, workers: int | None = None,
                 job_timeout: float | None = None,
                 recycle_after: int | None = None,
                 checkpoint_every: int | None = None,
                 checkpoint_dir=None,
                 telemetry: bool = False,
                 heartbeat_every: float | None = None,
                 heartbeat=None) -> None:
        self.workers = resolve_workers(workers)
        #: collect per-job telemetry deltas + worker heartbeats this run
        self.telemetry = bool(telemetry)
        self.heartbeat_every = (DEFAULT_HEARTBEAT_EVERY
                                if heartbeat_every is None
                                else max(0.0, float(heartbeat_every)))
        #: optional ``callback(heartbeat_wire_dict)`` invoked scheduler-side
        #: as worker heartbeats arrive (drives the live ``repro top`` file)
        self.heartbeat = heartbeat
        #: merged telemetry across every fresh job of the last run (a
        #: registry snapshot dict), None when telemetry was off
        self.telemetry_totals: dict | None = None
        self.job_timeout = None if job_timeout is None else float(job_timeout)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError("checkpoint_every requires a checkpoint_dir "
                             "(persist checkpoints somewhere resumable)")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        if recycle_after is not None and (recycle_after < 0
                                          or recycle_after
                                          != int(recycle_after)):
            raise ValueError("recycle_after must be an integer >= 1 "
                             "(0 or None disables recycling)")
        self.recycle_after = (None if not recycle_after
                              else int(recycle_after))
        #: run-level statistics, populated by :meth:`run`
        self.stats = {
            "backend": self.name,
            "workers": self.workers,
            "compile_cache_hits": 0,
            "compile_cache_misses": 0,
            "workers_recycled": 0,
            "workers_killed": 0,
        }

    def run(self, jobs, progress=None) -> list:
        """Execute every job; one outcome per job, in job order.

        ``progress`` is an optional ``callback(outcome)`` invoked as each
        job settles (out of order under parallelism)."""
        jobs = list(jobs)
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            # schedulers track in-flight work by job_id; a duplicate would
            # silently orphan one worker and double-report the other
            raise ValueError("duplicate job ids passed to backend: "
                             + ", ".join(sorted({i for i in ids
                                                 if ids.count(i) > 1})))
        if not jobs:
            return []
        for counter in ("compile_cache_hits", "compile_cache_misses",
                        "workers_recycled", "workers_killed"):
            self.stats[counter] = 0  # stats describe one run, not a life
        self.telemetry_totals = None
        return self._run(jobs, progress)

    def _run(self, jobs, progress) -> list:
        raise NotImplementedError

    def checkpoint_transport(self, job: CampaignJob) -> dict | None:
        """The checkpoint envelope for ``job`` (``{"every": N, "path":
        str}``), or None when mid-campaign checkpointing is off."""
        if not self.checkpoint_every or self.checkpoint_dir is None:
            return None
        from repro.orchestrator.store import checkpoint_path
        return {"every": int(self.checkpoint_every),
                "path": str(checkpoint_path(self.checkpoint_dir, job))}

    def telemetry_transport(self) -> dict | None:
        """The telemetry envelope dispatched with every job (``None``
        when telemetry collection is off for this run)."""
        if not self.telemetry:
            return None
        return {"heartbeat_every": self.heartbeat_every}

    def job_payload(self, job: CampaignJob) -> dict:
        """The wire dict dispatched to a worker for ``job``: its
        serialized form plus the transport envelopes (checkpointing,
        telemetry) configured for this run."""
        data = job.to_dict()
        transport = self.checkpoint_transport(job)
        if transport is not None:
            data["_checkpoint"] = transport
        telemetry = self.telemetry_transport()
        if telemetry is not None:
            data["_telemetry"] = telemetry
        return data

    def _absorb_cache_stats(self, wire: dict) -> None:
        self.stats["compile_cache_hits"] += int(wire.get("cache_hits") or 0)
        self.stats["compile_cache_misses"] += \
            int(wire.get("cache_misses") or 0)

    def _absorb_telemetry(self, delta: dict | None) -> None:
        """Fold one job's telemetry delta into the run totals (snapshot
        merge is associative + commutative, so settlement order does not
        matter)."""
        if not delta:
            return
        self.telemetry_totals = (
            delta if self.telemetry_totals is None
            else _metrics.merge_snapshots(self.telemetry_totals, delta))


class SchedulerCore:
    """Result-side state of a process-based scheduler.

    Owns the ``fork`` start-method context (workers start from the
    scheduler's already-imported package; POSIX only), the shared results
    queue, and settlement: first outcome wins (a result racing a timeout
    termination must not settle the same job twice — double progress
    callbacks and a final state contradicting the live log), and the drain
    tolerates the mangled queue items a worker terminated mid-``put`` can
    leave behind (the documented multiprocessing caveat) — the owning job
    settles via the timeout or crash path instead of taking the whole
    matrix down.
    """

    def __init__(self, jobs, progress=None, on_heartbeat=None) -> None:
        self.jobs = list(jobs)
        self.by_id = {job.job_id: job for job in self.jobs}
        self.progress = progress
        self.ctx = multiprocessing.get_context("fork")
        self.results_queue = self.ctx.Queue()
        self.settled: dict = {}  # job_id -> JobOutcome
        #: latest progress snapshot per in-flight job (wire dicts); a
        #: job's entry is attached to its outcome when the worker dies or
        #: overruns — the post-mortem shows where the campaign was
        self.heartbeats: dict = {}
        self.on_heartbeat = on_heartbeat

    def settle(self, outcome: JobOutcome) -> None:
        if outcome.job.job_id in self.settled:
            return
        self.settled[outcome.job.job_id] = outcome
        if self.progress is not None:
            self.progress(outcome)

    def all_settled(self) -> bool:
        return len(self.settled) == len(self.by_id)

    def settle_timeout(self, job_id: str, timeout: float,
                       started: float) -> None:
        """Settle an overrunning job (its worker was just terminated)."""
        self.settle(JobOutcome(
            job=self.by_id[job_id], status="timeout",
            error=f"job exceeded {timeout:.1f}s wall-clock timeout",
            elapsed=time.monotonic() - started,
            heartbeat=self.heartbeats.get(job_id)))

    def settle_dead_worker(self, job_id: str, exitcode, started: float,
                           handler=None) -> None:
        """A worker died holding ``job_id``: a clean exit (code 0) always
        queued its result first, so grace-drain for it; a nonzero exit
        (crash, OOM kill) never will, so only collect what is already
        queued.  Settles the job as ``error`` if no result surfaced."""
        if exitcode == 0:
            self.drain(block_for=DRAIN_GRACE, until=job_id,
                       handler=handler)
        else:
            self.drain(handler=handler)
        if job_id not in self.settled:
            self.settle(JobOutcome(
                job=self.by_id[job_id], status="error",
                error=f"worker died with exit code {exitcode} before "
                      f"reporting a result",
                elapsed=time.monotonic() - started,
                heartbeat=self.heartbeats.get(job_id)))

    def outcomes_in_job_order(self) -> list:
        return [self.settled[job.job_id] for job in self.jobs]

    def drain(self, block_for: float = 0.0, until: str | None = None,
              handler=None) -> None:
        """Dequeue results; optionally block up to ``block_for`` seconds.

        Without ``until``, blocks until at least one result arrives (or
        the deadline passes), then collects everything already queued and
        returns — so the calling scheduler reacts promptly.  With
        ``until``, keeps draining until that specific job settles or time
        runs out.  The blocking path sleeps in ``Queue.get(timeout=...)``
        capped at the sweep interval, so an idle scheduler never spins.

        ``handler`` (optional) sees each raw wire record before it
        settles — the pool backend uses it for worker bookkeeping.
        """
        deadline = time.monotonic() + block_for
        got = False
        while True:
            if until is not None and until in self.settled:
                return
            try:
                if got or block_for <= 0:
                    wire = self.results_queue.get_nowait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    wire = self.results_queue.get(
                        timeout=min(remaining, DEFAULT_SWEEP))
            except queue_mod.Empty:
                if got or block_for <= 0 or time.monotonic() >= deadline:
                    return
                continue
            except Exception:
                # mangled item from a terminated worker: drop it, but
                # keep honouring the deadline so a persistently-failing
                # read cannot loop forever
                if time.monotonic() >= deadline:
                    return
                continue
            if until is None:
                got = True
            self._receive(wire, handler)

    def _receive(self, wire, handler) -> None:
        try:
            if wire.get("kind") == "heartbeat":
                # progress report, not a result: remember the latest per
                # job and never let it near settlement
                job_id = wire.get("job_id")
                if job_id in self.by_id:
                    self.heartbeats[job_id] = wire.get("snapshot") or {}
                    if self.on_heartbeat is not None:
                        self.on_heartbeat(wire)
                return
            job = self.by_id[wire["job_id"]]
            outcome = JobOutcome.from_wire(job, wire)
        except Exception:
            return  # mangled wire record (terminated mid-put): the
            # owning job settles via the crash/timeout path
        if handler is not None:
            handler(wire)
        self.settle(outcome)

    def close(self) -> None:
        self.results_queue.close()

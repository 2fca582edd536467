"""The pool backend: persistent workers forked from the warm scheduler.

``workers`` long-lived child processes each pull jobs from the scheduler
until the matrix is done.  Each worker is ``fork``ed from the scheduler,
which has already imported the whole package, so a worker starts in
milliseconds instead of booting an interpreter; it then clears every
content cache (:data:`repro.cache.CACHES`) so it starts as cold as a
fresh process.  Each worker's process-local compile cache
(:mod:`repro.compiler.cache`) means a contract fuzzed across presets ×
trials compiles once per worker instead of once per cell, and
contract-sticky dispatch keeps each worker on the contract it already
holds: a worker gets the next pending job of its last contract, else the
first job of a contract no other worker holds, else the head of the
queue.

The scheduler dispatches exactly one job at a time to each worker over a
per-worker pipe, so it always knows which job a worker holds — the
invariant behind the pool's guarantees:

* **timeouts** — a worker overrunning the per-job wall-clock budget is
  terminated, its in-flight job settles as ``timeout`` (never requeued),
  and a replacement worker is forked;
* **crash isolation** — a worker that dies settles only its in-flight job
  as ``error`` and is replaced; queued jobs are unaffected;
* **recycling** — with ``recycle_after=K`` a worker is retired after
  completing K jobs and replaced fresh, bounding per-process memory
  growth on long matrices (at the cost of a cold compile cache).
  ``recycle_after=1`` is the isolation mode: every job runs in a fresh
  process forked from the scheduler, and nothing a job did survives into
  another.

A worker that reports a result gets its next job at once, before the
scheduler settles (and saves) the result it just received, so the store
write never leaves a worker idle.

The scheduler forks only while it is single-threaded: the dispatch
channels are plain pipes, which start no feeder thread, and the
scheduler only ever reads the shared results queue.

Results are byte-identical to the inline backend at any worker count:
job seeds derive from job identity alone, and compiled artifacts are
immutable, so cache reuse cannot leak state between cells.  The
determinism guard in the test suite enforces this.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.cache import CACHES
from repro.orchestrator.backends.base import (
    DEFAULT_SWEEP,
    ExecutionBackend,
    SchedulerCore,
    execute_to_wire,
    heartbeat_wire,
)


def _pool_worker_main(worker_key: int, dispatch_conn,
                      results_queue) -> None:
    """Long-lived child entry point, forked from the scheduler.

    Clears every content cache first, so the worker starts cold whatever
    the scheduler had cached, then receives serialized jobs until the
    ``None`` sentinel arrives; the process-local compile cache stays warm
    across jobs.  Heartbeats share the results queue (tagged
    ``kind="heartbeat"``) and carry the worker key, so the scheduler can
    show who is doing what."""
    for cache in CACHES.values():
        cache.clear()

    def sink(snapshot) -> None:
        results_queue.put(heartbeat_wire(snapshot))

    while True:
        job_data = dispatch_conn.recv()
        if job_data is None:
            break
        wire = execute_to_wire(job_data, heartbeat_sink=sink,
                               worker=worker_key)
        wire["worker"] = worker_key
        results_queue.put(wire)


@dataclass
class _PoolWorker:
    """Scheduler-side record of one live forked worker process."""

    key: int
    proc: object
    dispatch: object  # write end of the worker's job pipe (one job at a time)
    job_id: str | None = None
    started: float = field(default=0.0)
    jobs_done: int = 0
    #: ``(source, contract)`` of the last job dispatched here: the
    #: compile this worker holds
    contract_key: tuple | None = None


class PoolBackend(ExecutionBackend):
    name = "pool"

    def _run(self, jobs, progress) -> list:
        core = SchedulerCore(jobs, progress, on_heartbeat=self.heartbeat)
        pending = list(jobs)
        workers: dict = {}  # key -> _PoolWorker
        keys = itertools.count()

        def start_worker() -> None:
            key = next(keys)
            receiver, sender = core.ctx.Pipe(duplex=False)
            proc = core.ctx.Process(
                target=_pool_worker_main,
                args=(key, receiver, core.results_queue), daemon=True)
            proc.start()
            # only the worker holds the read end, so a send to a dead
            # worker fails instead of filling an orphaned pipe
            receiver.close()
            workers[key] = _PoolWorker(key=key, proc=proc, dispatch=sender)

        def retire(worker: _PoolWorker, kill: bool = False) -> None:
            """Remove a worker: sentinel + join for idle workers, hard
            terminate for overrunning ones."""
            workers.pop(worker.key, None)
            if kill:
                worker.proc.terminate()
            else:
                try:
                    worker.dispatch.send(None)
                except OSError:
                    pass  # already dead: join reaps it
            worker.proc.join()
            worker.dispatch.close()

        def next_job(worker: _PoolWorker) -> int:
            """Index in ``pending`` of the job for ``worker``: the first
            job of the contract it holds, else the first job of a
            contract no other worker holds, else the head."""
            held = {w.contract_key for w in workers.values()
                    if w is not worker}
            unheld = None
            for index, job in enumerate(pending):
                key = (job.source, job.contract)
                if key == worker.contract_key:
                    return index
                if unheld is None and key not in held:
                    unheld = index
            return unheld or 0

        def dispatch(worker: _PoolWorker) -> None:
            """Hand an idle worker its next job.  Never to one that died
            while idle or served its recycling quota: the top of the loop
            reaps or retires it and the headcount replaces it, so the job
            stays pending.  A failed send means the worker is dead: the
            job stays pending and the sweep reaps the worker."""
            if (not pending or worker.job_id is not None
                    or (self.recycle_after is not None
                        and worker.jobs_done >= self.recycle_after)
                    or not worker.proc.is_alive()):
                return
            index = next_job(worker)
            job = pending[index]
            try:
                worker.dispatch.send(self.job_payload(job))
            except OSError:
                return
            del pending[index]
            worker.job_id = job.job_id
            worker.contract_key = (job.source, job.contract)
            worker.started = time.monotonic()  # the timeout clock

        def on_wire(wire) -> None:
            self._absorb_cache_stats(wire)
            self._absorb_telemetry(wire.get("telemetry"))
            # match against the live incarnation only: a result racing in
            # from an already-terminated worker must not free anything
            worker = workers.get(wire.get("worker"))
            if worker is not None and worker.job_id == wire.get("job_id"):
                worker.job_id = None
                worker.jobs_done += 1
                # runs before SchedulerCore settles (and saves) this wire
                dispatch(worker)

        def sweep() -> None:
            """Settle timeouts and dead workers; replacements are forked
            by the top-of-loop headcount."""
            for worker in list(workers.values()):
                now = time.monotonic()
                if worker.job_id is None:
                    if not worker.proc.is_alive():
                        # died idle (rare): drop the carcass (terminate
                        # on a dead process is a harmless no-op)
                        retire(worker, kill=True)
                    continue
                job_id = worker.job_id
                if (self.job_timeout is not None
                        and now - worker.started > self.job_timeout
                        and worker.proc.is_alive()):
                    retire(worker, kill=True)
                    self.stats["workers_killed"] += 1
                    core.settle_timeout(job_id, self.job_timeout,
                                        worker.started)
                elif not worker.proc.is_alive():
                    core.settle_dead_worker(job_id, worker.proc.exitcode,
                                            worker.started,
                                            handler=on_wire)
                    retire(worker, kill=True)

        try:
            while not core.all_settled():
                # retire idle workers that served their recycling quota
                # (the headcount below forks fresh replacements)
                if self.recycle_after is not None:
                    for worker in [w for w in workers.values()
                                   if w.job_id is None
                                   and w.jobs_done >= self.recycle_after]:
                        retire(worker)
                        self.stats["workers_recycled"] += 1

                # headcount: enough workers for the remaining jobs, never
                # more than the configured pool size
                in_flight = sum(1 for w in workers.values()
                                if w.job_id is not None)
                while len(workers) < min(self.workers,
                                         len(pending) + in_flight):
                    start_worker()

                for worker in workers.values():
                    dispatch(worker)

                core.drain(block_for=DEFAULT_SWEEP, handler=on_wire)
                sweep()
        finally:
            # wind down politely, then terminate stragglers (a worker
            # still mid-job after an interrupt will not see its sentinel)
            for worker in workers.values():
                try:
                    worker.dispatch.send(None)
                except OSError:
                    pass
            deadline = time.monotonic() + 1.0
            for worker in workers.values():
                worker.proc.join(
                    timeout=max(0.0, deadline - time.monotonic()))
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join()
                worker.dispatch.close()
            core.close()

        return core.outcomes_in_job_order()

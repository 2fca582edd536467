"""The pool backend: persistent workers with warm compile caches.

``workers`` long-lived child processes each pull jobs from the scheduler
until the matrix is done, so interpreter boot and package import are paid
once per worker instead of once per job, and each worker's process-local
compile cache (:mod:`repro.compiler.cache`) means a contract fuzzed
across presets × trials compiles once per worker instead of once per
cell.

The scheduler dispatches exactly one job at a time to each worker over a
per-worker queue, so it always knows which job a worker holds — the
invariant behind the pool's guarantees:

* **timeouts** — a worker overrunning the per-job wall-clock budget is
  terminated, its in-flight job settles as ``timeout`` (never requeued),
  and a replacement worker is spawned;
* **crash isolation** — a worker that dies settles only its in-flight job
  as ``error`` and is replaced; queued jobs are unaffected;
* **recycling** — with ``recycle_after=K`` a worker is retired after
  completing K jobs and replaced fresh, bounding per-process memory
  growth on long matrices (at the cost of a cold compile cache).
  ``recycle_after=1`` is the isolation mode: every job runs in a fresh
  process and no state of any kind survives between jobs.

A worker that reports a result gets its next job at once, before the
scheduler settles (and saves) the result it just received, so the store
write never leaves a worker idle.

Results are byte-identical to the inline backend at any worker count:
job seeds derive from job identity alone, and compiled artifacts are
immutable, so cache reuse cannot leak state between cells.  The
determinism guard in the test suite enforces this.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

from repro.orchestrator.backends.base import (
    ExecutionBackend,
    SchedulerCore,
    execute_to_wire,
    heartbeat_wire,
)


def _pool_worker_main(worker_key: int, dispatch_queue,
                      results_queue) -> None:
    """Long-lived child entry point (module-level: spawn picklable).

    Pulls serialized jobs until the ``None`` sentinel arrives; the
    process-local compile cache stays warm across jobs.  Heartbeats share
    the results queue (tagged ``kind="heartbeat"``) and carry the worker
    key, so the scheduler can show who is doing what."""
    def sink(snapshot) -> None:
        results_queue.put(heartbeat_wire(snapshot))

    while True:
        job_data = dispatch_queue.get()
        if job_data is None:
            break
        wire = execute_to_wire(job_data, heartbeat_sink=sink,
                               worker=worker_key)
        wire["worker"] = worker_key
        results_queue.put(wire)


@dataclass
class _PoolWorker:
    """Scheduler-side record of one live worker process."""

    key: int
    proc: object
    dispatch: object  # per-worker job queue (one in-flight job at a time)
    job_id: str | None = None
    started: float = field(default=0.0)
    jobs_done: int = 0


class PoolBackend(ExecutionBackend):
    name = "pool"

    def _run(self, jobs, progress) -> list:
        core = SchedulerCore(jobs, progress, self.sweep_interval,
                             on_heartbeat=self.heartbeat)
        pending = deque(jobs)
        workers: dict = {}  # key -> _PoolWorker
        keys = itertools.count()

        def spawn_worker() -> None:
            key = next(keys)
            dispatch = core.ctx.Queue()
            proc = core.ctx.Process(
                target=_pool_worker_main,
                args=(key, dispatch, core.results_queue), daemon=True)
            proc.start()
            workers[key] = _PoolWorker(key=key, proc=proc,
                                       dispatch=dispatch)

        def retire(worker: _PoolWorker, kill: bool = False) -> None:
            """Remove a worker: sentinel + join for idle workers, hard
            terminate for overrunning ones."""
            workers.pop(worker.key, None)
            if kill:
                worker.proc.terminate()
            else:
                worker.dispatch.put(None)
            worker.proc.join()
            worker.dispatch.close()

        def dispatch(worker: _PoolWorker) -> None:
            """Hand an idle worker its next job.  Never to one that died
            while idle or served its recycling quota: the top of the loop
            reaps or retires it and the headcount replaces it, so the job
            stays pending."""
            if (not pending or worker.job_id is not None
                    or (self.recycle_after is not None
                        and worker.jobs_done >= self.recycle_after)
                    or not worker.proc.is_alive()):
                return
            job = pending.popleft()
            worker.job_id = job.job_id
            worker.started = time.monotonic()  # the timeout clock
            worker.dispatch.put(self.job_payload(job))

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
            """Settle timeouts and dead workers; replacements are spawned
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
                # (the headcount below spawns fresh replacements)
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
                    spawn_worker()

                for worker in workers.values():
                    dispatch(worker)

                core.drain(block_for=self.sweep_interval, handler=on_wire)
                sweep()
        finally:
            # wind down politely, then terminate stragglers (a worker
            # still mid-job after an interrupt will not see its sentinel)
            for worker in workers.values():
                try:
                    worker.dispatch.put(None)
                except Exception:
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

"""Pluggable execution backends for the campaign orchestrator.

Two strategies for pushing a batch of :class:`CampaignJob`s through the
machine, both settling byte-identical results:

``inline``
    everything in the calling process — the debugging mode and the
    determinism reference; no isolation, no timeouts, no recycling.
``pool`` (default)
    persistent workers forked from the scheduler, each kept on one
    contract where it can and with a warm per-process compile cache, with
    per-job timeouts and crash isolation via kill-and-replace.
    ``recycle_after=1`` is the isolation mode: a fresh process forked from
    the scheduler per job; nothing a job did survives into another.

``create_backend(None, ...)`` auto-selects: inline for the explicit
single-worker debugging mode (no timeout, no recycling), otherwise the
pool.
"""

from __future__ import annotations

from repro.orchestrator.backends.base import (
    DEFAULT_SWEEP,
    ExecutionBackend,
    SchedulerCore,
    execute_job,
    resolve_workers,
)
from repro.orchestrator.backends.inline import InlineBackend
from repro.orchestrator.backends.pool import PoolBackend

#: registry: CLI choice / ``run_matrix(backend=...)`` name -> class
BACKENDS = {
    InlineBackend.name: InlineBackend,
    PoolBackend.name: PoolBackend,
}

DEFAULT_BACKEND = PoolBackend.name


def backend_for(workers: int | None = None,
                job_timeout: float | None = None,
                recycle_after: int | None = None) -> str:
    """Auto-selected backend name: inline for the single-worker debugging
    mode (no subprocesses), otherwise the pool — which a timeout or a
    recycling quota always needs, whatever the worker count."""
    if (job_timeout is None and not recycle_after
            and resolve_workers(workers) <= 1):
        return InlineBackend.name
    return DEFAULT_BACKEND


def create_backend(name: str | None = None, *, workers: int | None = None,
                   job_timeout: float | None = None,
                   recycle_after: int | None = None,
                   checkpoint_every: int | None = None,
                   checkpoint_dir=None,
                   telemetry: bool = False,
                   heartbeat_every: float | None = None,
                   heartbeat=None) -> ExecutionBackend:
    """Instantiate a backend by name (``None`` = auto, see
    :func:`backend_for`)."""
    if name is None:
        name = backend_for(workers, job_timeout, recycle_after)
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown execution backend {name!r}: expected "
                         f"one of {', '.join(sorted(BACKENDS))}") from None
    return cls(workers=workers, job_timeout=job_timeout,
               recycle_after=recycle_after, checkpoint_every=checkpoint_every,
               checkpoint_dir=checkpoint_dir,
               telemetry=telemetry, heartbeat_every=heartbeat_every,
               heartbeat=heartbeat)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_SWEEP",
    "ExecutionBackend",
    "InlineBackend",
    "PoolBackend",
    "SchedulerCore",
    "backend_for",
    "create_backend",
    "execute_job",
    "resolve_workers",
]

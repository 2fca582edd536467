"""The orchestrator entry point: run a campaign matrix end to end.

``run_matrix`` expands contracts × presets × trials into jobs, skips the
cells a :class:`~repro.orchestrator.store.ResultStore` already holds
(matching fingerprints only), fans the rest out over the worker pool, and
persists fresh results — so an interrupted matrix resumes where it left
off and a finished one is a pure cache hit.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.engine.checkpoint import canonical_json
from repro.orchestrator import aggregate
from repro.orchestrator.backends import create_backend
from repro.orchestrator.jobs import build_matrix
from repro.orchestrator.store import ResultStore, atomic_write_text


@dataclass
class RunStats:
    """Typed run-level statistics for one matrix run.

    ``to_wire()`` is the canonical serialization the
    BENCH_orchestrator.json writers embed — it includes the derived rates
    (execs/sec, txs/sec, cache hit rate) alongside the raw counters.
    """

    #: execution backend name the fresh cells ran on
    backend: str | None = None
    workers: int = 0
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    workers_recycled: int = 0
    workers_killed: int = 0
    #: campaign iterations / transactions across the *fresh* (executed)
    #: cells — cached cells did no work this run
    executions: int = 0
    transactions: int = 0
    #: wall-clock seconds of the whole matrix run
    elapsed: float = 0.0
    #: merged telemetry registry snapshot across every fresh job (None
    #: when the run did not collect telemetry)
    telemetry: dict | None = None
    #: result-store counters (records saved/loaded, queries, query time,
    #: temps swept) from ``StoreBackend.stats_dict``; None
    #: when the run kept everything in memory
    store: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        total = self.compile_cache_hits + self.compile_cache_misses
        return self.compile_cache_hits / total if total else 0.0

    @property
    def execs_per_sec(self) -> float:
        return self.executions / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def txs_per_sec(self) -> float:
        return self.transactions / self.elapsed if self.elapsed > 0 else 0.0

    def to_wire(self) -> dict:
        data = asdict(self)
        data["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        data["execs_per_sec"] = round(self.execs_per_sec, 2)
        data["txs_per_sec"] = round(self.txs_per_sec, 2)
        return data

    @classmethod
    def from_backend(cls, engine, executions: int = 0,
                     transactions: int = 0,
                     elapsed: float = 0.0) -> "RunStats":
        known = set(cls.__dataclass_fields__)
        fields = {k: v for k, v in engine.stats.items() if k in known}
        return cls(executions=executions, transactions=transactions,
                   elapsed=elapsed,
                   telemetry=getattr(engine, "telemetry_totals", None),
                   **fields)


@dataclass
class MatrixRun:
    """Everything one matrix run produced, in job order."""

    outcomes: list
    cached: int = 0
    executed: int = 0
    elapsed: float = 0.0
    results_dir: str | None = None
    #: execution backend name the fresh cells ran on
    backend: str | None = None
    #: typed run statistics (worker count, compile-cache hits/misses,
    #: throughput, merged telemetry); zeros when every cell was cached
    stats: RunStats = field(default_factory=RunStats)

    @property
    def errors(self) -> list:
        return [o for o in self.outcomes if o.status == "error"]

    @property
    def timeouts(self) -> list:
        return [o for o in self.outcomes if o.status == "timeout"]

    def ok_results(self) -> list:
        """(job, CampaignResult) pairs for every successful cell."""
        return [(o.job, o.result) for o in self.outcomes if o.ok]

    def results_for(self, preset: str) -> dict:
        """contract name → list of trial CampaignResults for one preset."""
        return {contract: results
                for (p, contract), results
                in aggregate.group_outcomes(self.outcomes).items()
                if p == preset}

    def summaries(self) -> list:
        return aggregate.summarize(self.outcomes)

    def merged_results(self) -> dict:
        return aggregate.merged_results(self.outcomes)


class _LiveProgressWriter:
    """Publishes the matrix's live progress file for ``repro top``.

    Writes are atomic (tmp + replace, so a reader never sees a torn
    record) and throttled; heartbeats and settlements update scheduler
    state that is observational only — a write failure is swallowed
    because observability must never take the matrix down.
    """

    MIN_INTERVAL = 0.5

    def __init__(self, path, total: int, cached: int = 0) -> None:
        self.path = path
        self.total = total
        self.cached = cached
        self.settled = cached
        self.jobs: dict = {}      # job_id -> latest heartbeat snapshot
        self.statuses: dict = {}  # job_id -> settled status
        self._started = time.monotonic()
        self._last_write = 0.0
        self._write(force=True)

    def on_heartbeat(self, wire: dict) -> None:
        job_id = wire.get("job_id")
        if job_id:
            self.jobs[job_id] = wire.get("snapshot") or {}
        self._write()

    def on_settle(self, outcome) -> None:
        self.settled += 1
        self.statuses[outcome.job.job_id] = outcome.status
        self.jobs.pop(outcome.job.job_id, None)  # no longer in flight
        self._write(force=True)

    def finalize(self, stats: "RunStats") -> None:
        self._write(force=True, stats=stats)

    def _write(self, force: bool = False, stats=None) -> None:
        now = time.monotonic()
        if not force and now - self._last_write < self.MIN_INTERVAL:
            return
        self._last_write = now
        record = {
            "kind": "matrix_progress",
            "total": self.total,
            "settled": self.settled,
            "cached": self.cached,
            "elapsed_s": round(now - self._started, 3),
            "done": stats is not None,
            "in_flight": self.jobs,
            "statuses": self.statuses,
        }
        if stats is not None:
            record["stats"] = stats.to_wire()
        try:
            # atomic but unsynced: a torn read is impossible, and a lost
            # progress frame costs nothing (fsync here would put a disk
            # stall on every heartbeat)
            atomic_write_text(self.path, canonical_json(record),
                              fsync=False)
        except OSError:
            pass


def run_matrix(contracts, presets, trials: int = 1, base_seed: int = 1,
               overrides: dict | None = None, supported: dict | None = None,
               workers: int | None = None, results_dir=None,
               job_timeout: float | None = None,
               progress=None, backend: str | None = None,
               recycle_after: int | None = None,
               checkpoint_every: int | None = None,
               time_budget: float | None = None,
               tx_budget: int | None = None,
               oracles=None,
               state_cache: bool | None = None,
               surface_pruning: bool | None = None,
               block_fusion: bool | None = None,
               telemetry: bool = False,
               heartbeat_every: float | None = None,
               on_heartbeat=None,
               store: str | None = None) -> MatrixRun:
    """Run (or resume) a campaign matrix; see module docstring.

    ``results_dir=None`` keeps everything in memory (no persistence,
    nothing skipped).  ``workers=None`` uses ``os.cpu_count()``.
    ``backend`` picks the execution backend (``inline`` or ``pool``;
    ``None`` auto-selects — inline for the single-worker debugging mode
    with no timeout and no recycling, otherwise the default pool).
    Results are byte-identical across backends and worker counts.
    ``recycle_after`` retires each pool worker after that many jobs to
    bound memory growth; ``recycle_after=1`` runs every job in a fresh
    process (the isolation mode).

    ``time_budget``/``tx_budget`` are per-campaign budget specs folded
    into every job's config (combined with the iteration budget by the
    engine's single :class:`~repro.engine.budget.Budget` authority).
    ``checkpoint_every=N`` (requires ``results_dir``) makes workers
    persist a mid-campaign checkpoint every N executions; an interrupted
    matrix then resumes *mid-campaign* from those checkpoints, with
    byte-identical final results.

    ``oracles`` restricts every campaign to the given bug classes
    (iterable of :class:`~repro.oracles.base.BugClass` members or string
    codes); it folds into each job's config as ``bug_classes``, so the
    restriction participates in result fingerprints and checkpoints.  Use
    ``supported`` instead to model *per-preset* tool capability sets.

    ``state_cache``/``surface_pruning``/``block_fusion`` pin the
    ``use_state_cache``/``use_surface_pruning``/``use_block_fusion``
    config fields for every campaign in the matrix; ``None`` leaves the
    config default (on).  The three tiers are pure performance layers —
    results are byte-identical either way — so all three off is the
    reference path fast paths are checked against.

    ``telemetry=True`` collects per-job metrics/span deltas (merged into
    ``MatrixRun.stats.telemetry``, embedded in result records) and turns
    on worker heartbeats: with a ``results_dir`` the scheduler publishes
    a throttled live progress file (``live.telemetry.json``) that
    ``repro top`` follows, and ``on_heartbeat(wire)`` (optional) sees
    every heartbeat as it arrives.  Telemetry is provably inert — results
    are byte-identical with it on or off.

    ``results_dir`` is a per-file json store; one holding a ``results.db``
    from the retired database backend raises
    :class:`~repro.orchestrator.store.LegacyStoreError` before anything
    is run or written.  ``store`` accepts only ``None`` or ``"json"``, the
    one backend; it goes once the benchmark stops passing ``"json"``.
    """
    start = time.perf_counter()
    if store not in (None, "json"):
        raise ValueError(f"unknown store backend {store!r} (only 'json')")
    if oracles is not None:
        from repro.core.config import normalize_bug_classes
        overrides = dict(overrides or {})
        if "bug_classes" in overrides:
            raise ValueError("oracles given both directly and as a "
                             "bug_classes override; pass it one way")
        overrides["bug_classes"] = list(normalize_bug_classes(oracles))
    if (state_cache is not None or surface_pruning is not None
            or block_fusion is not None):
        overrides = dict(overrides or {})
        for key, value in (("use_state_cache", state_cache),
                           ("use_surface_pruning", surface_pruning),
                           ("use_block_fusion", block_fusion)):
            if value is None:
                continue
            if key in overrides:
                raise ValueError(f"{key} given both directly and in "
                                 f"overrides; pass it one way")
            overrides[key] = value
    if checkpoint_every is not None and results_dir is None:
        raise ValueError("checkpoint_every requires results_dir "
                         "(checkpoints persist next to the results)")
    if time_budget is not None or tx_budget is not None:
        overrides = dict(overrides or {})
        for key, value in (("time_budget", time_budget),
                           ("tx_budget", tx_budget)):
            if value is None:
                continue
            if key in overrides:
                raise ValueError(f"{key} given both directly and in "
                                 f"overrides; pass it one way")
            overrides[key] = float(value) if key == "time_budget" \
                else int(value)
    jobs = build_matrix(contracts, presets, trials=trials,
                        base_seed=base_seed, overrides=overrides,
                        supported=supported)

    store = ResultStore(results_dir) if results_dir is not None else None
    cached = store.load_fresh(jobs) if store is not None else {}
    pending = []
    for job in jobs:
        if job.job_id in cached:
            # a completed cell's leftover checkpoint (crash between result
            # save and checkpoint cleanup) is stale — drop it
            store.clear_checkpoint(job)
        else:
            pending.append(job)

    live = (_LiveProgressWriter(store.live_telemetry_path(), len(jobs),
                                cached=len(cached))
            if telemetry and store is not None else None)

    def heartbeat(wire) -> None:
        if live is not None:
            live.on_heartbeat(wire)
        if on_heartbeat is not None:
            on_heartbeat(wire)

    engine = create_backend(backend, workers=workers,
                            job_timeout=job_timeout,
                            recycle_after=recycle_after,
                            checkpoint_every=checkpoint_every,
                            checkpoint_dir=(None if store is None
                                            else store.root),
                            telemetry=telemetry,
                            heartbeat_every=heartbeat_every,
                            heartbeat=(heartbeat if telemetry else None))
    fresh = {}
    if pending:
        def on_settle(outcome):
            if store is not None:
                store.save(outcome)
            if live is not None:
                live.on_settle(outcome)
            if progress is not None:
                progress(outcome)

        for outcome in engine.run(pending, progress=on_settle):
            fresh[outcome.job.job_id] = outcome

    outcomes = [cached[job.job_id] if job.job_id in cached
                else fresh[job.job_id] for job in jobs]
    elapsed = time.perf_counter() - start
    fresh_ok = [o for o in fresh.values() if o.ok]
    stats = RunStats.from_backend(
        engine,
        executions=sum(o.result.iterations for o in fresh_ok),
        transactions=sum(o.result.transactions for o in fresh_ok),
        elapsed=elapsed)
    if store is not None:
        stats.store = store.stats_dict()
    if live is not None:
        live.finalize(stats)
    return MatrixRun(
        outcomes=outcomes,
        cached=len(cached),
        executed=len(fresh),
        elapsed=elapsed,
        results_dir=None if results_dir is None else str(results_dir),
        backend=engine.name,
        stats=stats,
    )

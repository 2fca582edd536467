"""The benchmark's workloads: seeded inputs and one measured round each.

A *round* is one pass over a workload's inputs in a fresh interpreter
(``round.py``): the compile, surface, analysis and fusion caches and the
keccak LRU are process-global, so only a new process measures cold
set-up.  ``run.py`` runs rounds back to back and aggregates them.

Workloads (all closed loops):

``campaign-d2``
    One client, one process: one in-memory ``mufuzz`` campaign per
    contract on a seeded draw of D2 contracts (the paper's annotated
    bug corpus), back to back.  Short executions (about 100 EVM steps),
    so per-transaction glue, oracle dispatch, feedback, state cache and
    mutation carry the time.
``campaign-d3``
    Same loop over a seeded draw of large D3 contracts.  Executions run
    about 500 steps and set-up plus the lazy fusion compile are a large
    share: the machine, fusion compile and analyses dominate, and a
    per-transaction glue change should show no change here.
``matrix-d2``
    One scheduler plus ``nproc`` pool workers: ``run_matrix`` over a
    seeded draw of D2 contracts x all five presets x 1 trial with a short
    iteration budget, into a fresh json store, then the same matrix again
    against that store (the resume path).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import shutil
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

#: every preset of the repo's registry (``repro.core.config.PRESET_CONFIGS``)
ALL_PRESETS = ("mufuzz", "sfuzz", "confuzzius", "irfuzz", "smartian")

#: workload parameters.  ``pool`` is how many contracts of the corpus the
#: workload draws from (sorted by source length, the middle ones);
#: ``contracts`` how many each round takes.  ``round_s`` is the nominal
#: length of one round on a 2-core box, which sets how many rounds fill
#: ``--seconds``; at the committed ``run_seconds`` the rounds of a run
#: cover the whole pool.
WORKLOADS = {
    "campaign-d2": {
        "kind": "campaign", "corpus": "d2", "pool": 155, "contracts": 12,
        "iterations": 500, "presets": ["mufuzz"], "round_s": 1.55,
    },
    "campaign-d3": {
        "kind": "campaign", "corpus": "d3", "pool": 24, "contracts": 6,
        "iterations": 300, "presets": ["mufuzz"], "round_s": 5.0,
    },
    "matrix-d2": {
        "kind": "matrix", "corpus": "d2", "pool": 155, "contracts": 26,
        "iterations": 40, "presets": list(ALL_PRESETS), "trials": 1,
        "backend": "pool", "store": "json", "round_s": 3.3,
    },
}

#: the three performance tiers switched off: the reference path every
#: fast-path result must agree with
REFERENCE_TIERS = {"use_state_cache": False, "use_surface_pruning": False,
                   "use_block_fusion": False}


# -- seeded inputs ----------------------------------------------------------------


def draw(params: dict, workload: str, seed: int, k: int) -> list:
    """Round ``k``'s contracts for ``seed``: ``(contract, rng_seed)``
    pairs.  Round ``k`` takes the ``k``-th slice of a seeded shuffle of
    the pool (wrapping around), so the rounds of one run draw without
    replacement and together cover the pool: runs at different seeds see
    the same contracts, grouped and seeded differently."""
    from repro.corpus import generate_d2, generate_d3

    corpus = generate_d2() if params["corpus"] == "d2" else generate_d3()
    corpus.sort(key=lambda c: (len(c.source), c.name))
    skip = (len(corpus) - params["pool"]) // 2
    pool = corpus[skip:skip + params["pool"]]
    random.Random(f"{workload}|{seed}").shuffle(pool)
    n = params["contracts"]
    picked = [pool[(k * n + i) % len(pool)] for i in range(n)]
    rng = random.Random(f"{workload}|{seed}|{k}")
    return [(contract, rng.randrange(1 << 32)) for contract in picked]


def campaign_config(params: dict, rng_seed: int, reference: bool = False):
    from repro.core.config import preset_config

    overrides = dict(REFERENCE_TIERS) if reference else {}
    return preset_config(params["presets"][0],
                         iterations=params["iterations"],
                         rng_seed=rng_seed, **overrides)


def matrix_jobs(params: dict, workload: str, seed: int, k: int) -> tuple:
    """``run_matrix`` arguments of round ``k``: contracts, presets and
    keyword arguments (per-job seeds derive from the base seed and the
    job's identity)."""
    contracts = [c for c, _ in draw(params, workload, seed, k)]
    base_seed = random.Random(f"{workload}|{seed}|{k}|base").randrange(
        1 << 32)
    return contracts, params["presets"], {
        "trials": params["trials"], "base_seed": base_seed,
        "overrides": {"iterations": params["iterations"]}}


def result_digest(result_dict: dict) -> str:
    """64-bit digest of a campaign result without its wall time."""
    data = {k: v for k, v in result_dict.items() if k != "wall_time"}
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment() -> dict:
    """What a run's numbers depend on besides the code."""
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


# -- rounds -------------------------------------------------------------------------


def run_round(spec: dict) -> dict:
    """One round in this (fresh) process.

    ``spec`` holds ``workload``, ``params`` (its :data:`WORKLOADS`
    entry), ``seed``, ``draw`` (the round index ``k``), ``reference``
    (tiers off), ``trace`` (record spans), ``spans_path`` (where to write
    them), ``findings`` (return every finding with its witness) and
    ``work_dir`` (scratch space for the matrix store)."""
    out = {"env": environment()}
    kind = spec["params"]["kind"]
    runner = campaign_round if kind == "campaign" else matrix_round
    out.update(runner(spec))
    return out


def _counters() -> dict:
    """The process-global work counters of the layers a round drives."""
    from repro.compiler import cache
    from repro.core import statecache
    from repro.evm import fusion, machine

    return {
        "evm_steps": machine._steps_total,
        "evm_transactions": machine._txs,
        "statecache_hits": statecache._hits_total,
        "statecache_misses": statecache._misses_total,
        "statecache_steps_saved": statecache._steps_saved_total,
        "compile_cache_misses": cache.compile_cache_stats()["misses"],
        "fusion_cache_misses": fusion.fusion_stats()["misses"],
    }


def _since(before: dict) -> dict:
    after = _counters()
    return {key: after[key] - before[key] for key in after}


def campaign_round(spec: dict) -> dict:
    """Compile, set up and run one campaign per drawn contract."""
    from repro.compiler import cache
    from repro.core import fuzzer as fuzzer_mod

    params = spec["params"]
    entries = draw(params, spec["workload"], spec["seed"], spec["draw"])
    tracer = _tracer(spec)
    before = _counters()
    cells, digests, errors, findings = [], [], [], []
    setup_s = run_s = 0.0
    executions = transactions = edges = found = probes = 0
    with tracer if tracer is not None else nullcontext():
        wall0 = perf_counter()
        for index, (contract, rng_seed) in enumerate(entries):
            config = campaign_config(params, rng_seed, spec["reference"])
            with (tracer.span("bench.cell") if tracer is not None
                  else nullcontext()):
                c0 = perf_counter()
                try:
                    artifact = cache.compile_cached(contract.source,
                                                    contract.name)
                    fuzzer = fuzzer_mod.Fuzzer(artifact, config)
                    c1 = perf_counter()
                    result = fuzzer.run()
                    c2 = perf_counter()
                except Exception as exc:  # a failed cell, not a crash
                    errors.append([index, f"{type(exc).__name__}: {exc}"])
                    digests.append(None)
                    continue
            setup_s += c1 - c0
            run_s += c2 - c1
            cells.append(c2 - c0)
            data = result.to_dict()
            digests.append(result_digest(data))
            executions += result.iterations
            transactions += result.transactions
            edges += len(fuzzer.coverage.covered)
            found += len(result.findings)
            probes += fuzzer.pipeline.masked.probes_spent
            if spec.get("findings"):
                findings.extend([index, f] for f in data["findings"])
        wall = perf_counter() - wall0

    counters = _since(before)
    out = {
        "wall_s": wall, "setup_s": setup_s, "run_s": run_s,
        "executions": executions, "cell_s": cells, "cells": len(entries),
        "peak_rss_mb": _own_peak_mb(), "digests": digests,
        "errors": errors, "checks": [], "findings": findings,
        "counts": {"executions": executions, "transactions": transactions,
                   "findings": found, "covered_edges": edges,
                   "probe_executions": probes, **counters},
    }
    if tracer is not None:
        from layers import campaign_layers
        out["layers"] = campaign_layers(
            tracer, wall=wall, cells=cells, counters=counters,
            distinct=len({c.source for c, _ in entries}))
        _write_spans(tracer, spec)
    return out


def matrix_round(spec: dict) -> dict:
    """``run_matrix`` into a fresh store, then again (all cached).  The
    reference variant runs inline at one worker, tiers off, with no
    store."""
    from repro.orchestrator import runner
    from repro.orchestrator.store import ResultStore

    mspec = spec["params"]
    contracts, presets, kwargs = matrix_jobs(mspec, spec["workload"],
                                             spec["seed"], spec["draw"])
    if spec["reference"]:
        run = runner.run_matrix(contracts, presets, workers=1,
                                backend="inline", state_cache=False,
                                surface_pruning=False, block_fusion=False,
                                **kwargs)
        return _matrix_outcomes(run, spec) | {"checks": []}

    workers = os.cpu_count() or 1
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
    tracer = _tracer(spec)
    settled = []

    def progress(outcome) -> None:
        if not settled:
            settled.append((perf_counter(), outcome.elapsed))

    try:
        with ChildPeakSampler() as sampler:
            with tracer if tracer is not None else nullcontext():
                t0 = perf_counter()
                run = runner.run_matrix(
                    contracts, presets, workers=workers,
                    results_dir=store_dir, backend=mspec["backend"],
                    store=mspec["store"], progress=progress, **kwargs)
                wall = perf_counter() - t0
        records = ResultStore(store_dir).canonical_records()
        r0 = perf_counter()
        rerun = runner.run_matrix(contracts, presets, workers=workers,
                                  results_dir=store_dir,
                                  backend=mspec["backend"],
                                  store=mspec["store"], **kwargs)
        resume_s = perf_counter() - r0
        checks = _rerun_checks(run, rerun, records,
                               ResultStore(store_dir).canonical_records())
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    out = _matrix_outcomes(run, spec)
    cells = [o.elapsed for o in run.outcomes]
    first_at, first_elapsed = settled[0] if settled else (t0, 0.0)
    out.update({
        "wall_s": wall, "setup_s": first_at - t0 - first_elapsed,
        "run_s": wall, "executions": run.stats.executions,
        "cell_s": cells, "peak_rss_mb": _own_peak_mb() + sampler.peak_mb(),
        "checks": checks,
    })
    if tracer is not None:
        out["layers"] = _matrix_layers(spec, tracer, run, wall, resume_s,
                                       contracts, presets, kwargs)
    return out


def _matrix_outcomes(run, spec) -> dict:
    digests, errors, findings = [], [], []
    counts = {"executions": 0, "transactions": 0, "coverage_steps": 0,
              "findings": 0}
    for index, outcome in enumerate(run.outcomes):
        if not outcome.ok:
            errors.append([index, f"{outcome.status}: "
                                  f"{outcome.error.strip()[-300:]}"])
            digests.append(None)
            continue
        data = outcome.result.to_dict()
        digests.append(result_digest(data))
        counts["executions"] += outcome.result.iterations
        counts["transactions"] += outcome.result.transactions
        counts["coverage_steps"] += outcome.result.total_steps
        counts["findings"] += len(outcome.result.findings)
        if spec.get("findings"):
            findings.extend([index, f] for f in data["findings"])
    return {"cells": len(run.outcomes), "digests": digests,
            "errors": errors, "findings": findings, "counts": counts}


def _rerun_checks(run, rerun, before: dict, after: dict) -> list:
    """Failed cells of the resume pass: each must come back cached, with
    the record and result (less its wall time, which records zero) the
    first pass stored."""
    failed = []
    if rerun.executed or rerun.cached != len(run.outcomes):
        failed.append([-1, f"re-run executed {rerun.executed} cell(s), "
                           f"cached {rerun.cached} of "
                           f"{len(run.outcomes)}"])
    if before != after:
        failed.append([-1, "re-run changed the store's records"])
    for index, (first, second) in enumerate(zip(run.outcomes,
                                                rerun.outcomes)):
        if not first.ok or not second.ok:
            continue
        if (result_digest(first.result.to_dict())
                != result_digest(second.result.to_dict())):
            failed.append([index, "cached result differs from the "
                                  "first pass"])
    return failed


def _matrix_layers(spec, tracer, run, wall, resume_s, contracts, presets,
                   kwargs) -> dict:
    """Scheduler-side layers come from the traced pool pass; spawned
    workers do not inherit wrappers, so the worker-side layers come from
    a second traced pass over the same cells, inline at one worker."""
    from layers import campaign_layers, orchestrator_layers
    from repro.orchestrator import runner

    inline = _tracer(spec)
    before = _counters()
    with inline:
        w0 = perf_counter()
        with inline.span("bench.cells"):
            pass_run = runner.run_matrix(contracts, presets, workers=1,
                                         backend="inline", **kwargs)
        inline_wall = perf_counter() - w0
    distinct = len({c.source for c in contracts})
    layers = campaign_layers(
        inline, wall=inline_wall,
        cells=[o.elapsed for o in pass_run.outcomes],
        counters=_since(before), distinct=distinct)
    layers.update(orchestrator_layers(
        tracer, wall=wall, cells=[o.elapsed for o in run.outcomes],
        workers=run.stats.workers, resume_s=resume_s))
    # the pool's misses: each worker compiles each contract it meets
    misses = run.stats.compile_cache_misses
    layers["compiler.cache_misses"] = misses
    layers["compiler.misses_per_contract"] = misses / distinct
    _write_spans(inline, spec)
    return layers


# -- helpers ---------------------------------------------------------------------------


def _tracer(spec: dict):
    if not spec.get("trace"):
        return None
    from tracing import Tracer
    return Tracer()


def _write_spans(tracer, spec: dict) -> None:
    path = spec.get("spans_path")
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path)


def _own_peak_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ChildPeakSampler:
    """Peak resident memory of this process's children (the pool
    workers): a thread samples each child's ``VmHWM`` high-water mark
    from ``/proc`` every tenth of a second; the sum over children of
    their last sample is reported."""

    INTERVAL = 0.1

    def __init__(self) -> None:
        self._peaks: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "ChildPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def peak_mb(self) -> float:
        return sum(self._peaks.values()) / 1024.0

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def _sample(self) -> None:
        for pid in _child_pids():
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            kib = int(line.split()[1])
                            if kib > self._peaks.get(pid, 0):
                                self._peaks[pid] = kib
                            break
            except (OSError, ValueError):
                continue  # exited between listing and reading


def _child_pids() -> list:
    """Pids whose parent is this process (``/proc/<pid>/stat`` field 4)."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(entry.name)
    return pids

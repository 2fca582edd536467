"""Benchmark harness configuration.

Every bench regenerates one paper artefact (table or figure), prints it to
the terminal, and persists it under ``benchmarks/results/``.  Scale is
controlled by ``REPRO_BENCH_SCALE``:

* ``small`` (default) — subsampled corpora and reduced iteration budgets so
  the whole harness completes in a few minutes on a laptop;
* ``full``  — the complete generated corpora and paper-scale (for our
  substrate) budgets.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: per-run orchestrator timing trajectory, at the repo root so every PR's
#: numbers land in the same artifact
TIMING_PATH = Path(__file__).parent.parent / "BENCH_orchestrator.json"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


def scaled(small: int, full: int) -> int:
    """Pick a knob value by scale."""
    return full if SCALE == "full" else small


def bench_workers() -> int | None:
    """Worker processes for orchestrator-backed benches.

    ``REPRO_BENCH_WORKERS`` overrides; unset means all CPU cores.  Results
    are identical for any worker count — the orchestrator derives per-job
    seeds deterministically — so this only trades wall-clock for cores.
    """
    value = os.environ.get("REPRO_BENCH_WORKERS")
    return int(value) if value else None


def bench_backend() -> str:
    """Execution backend for orchestrator-backed benches.

    ``REPRO_BENCH_BACKEND`` overrides; the default is the pool backend —
    persistent workers whose compile caches amortize per-cell startup.
    Results are byte-identical across backends, so this too only trades
    wall-clock.
    """
    return os.environ.get("REPRO_BENCH_BACKEND") or "pool"


def bench_persistence(label: str) -> dict:
    """Optional ``run_matrix`` persistence kwargs for preemptible benches.

    Set ``REPRO_BENCH_RESULTS_DIR`` to persist per-cell results under
    ``<dir>/<label>/`` — an interrupted bench then resumes instead of
    starting over, and ``REPRO_BENCH_CHECKPOINT_EVERY=N`` additionally
    checkpoints every campaign mid-flight so the resume is mid-campaign,
    not per-cell.  The engine's determinism guarantee keeps resumed bench
    numbers byte-identical to uninterrupted ones.  Unset (the default,
    and in CI) benches stay purely in-memory.
    """
    results_root = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    if not results_root:
        return {}
    kwargs: dict = {"results_dir": Path(results_root) / label}
    every = os.environ.get("REPRO_BENCH_CHECKPOINT_EVERY")
    if every:
        kwargs["checkpoint_every"] = int(every)
    return kwargs


def record_matrix_timing(label: str, run) -> None:
    """Log one :class:`MatrixRun`'s timing into ``BENCH_orchestrator.json``.

    One entry per bench label, overwritten each run — the artifact is a
    perf trajectory for the orchestrator across PRs, not an archive, so
    only the latest numbers per bench are kept.
    """
    try:
        data = json.loads(TIMING_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    # RunStats.to_wire() is the canonical stats serialization: raw
    # counters plus the derived execs/sec, txs/sec, and cache-hit-rate
    stats = run.stats.to_wire()
    stats.pop("telemetry", None)  # registry snapshots are too bulky here
    stats.pop("elapsed", None)    # recorded as wall_clock_s below
    if stats.get("store") is None:  # in-memory run: drop the null field
        stats.pop("store", None)
    data[label] = {
        "cells": len(run.outcomes),
        "executed": run.executed,
        "cached": run.cached,
        "wall_clock_s": round(run.elapsed, 3),
        "jobs_per_sec": (round(run.executed / run.elapsed, 3)
                         if run.elapsed > 0 and run.executed else None),
        "scale": SCALE,
        **stats,
    }
    TIMING_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                           + "\n")


@pytest.fixture
def report(capsys):
    """Print a result table to the real terminal and persist it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _report


@pytest.fixture
def once(benchmark):
    """Run a campaign exactly once under pytest-benchmark timing."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once

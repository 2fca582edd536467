"""Result-store backend A/B: per-file JSON vs WAL-mode SQLite.

The orchestrator persists one canonical record per campaign cell; at real
matrix scale (thousands of contract × preset × trial cells) the per-file
reference layout pays one ``open/write/fsync/rename`` per record on save
and one ``open/read/parse`` per record on every resume scan.  The SQLite
backend batches saves through a buffered single-writer and answers resume
scans from an index without touching record payloads.  This bench measures
both edges on synthetic records (no fuzzing — the store is the only thing
under test):

* ``save``        — persist N records into a fresh store (including the
  final flush), i.e. the write path a campaign run exercises;
* ``resume_scan`` — open an existing N-record store cold and answer
  ``fresh_ids`` for the full matrix, i.e. the first thing a resumed
  ``repro campaign --results-dir`` does.

Both backends produce byte-identical canonical artifacts (the golden
store sweep in ``tests/test_golden_determinism.py`` pins that), so the
arms do the same logical work and the series isolates pure wall-clock.

Estimator (same hostile-conditions design as the telemetry gate in
``bench_hot_path``):
each round runs the two arms back to back, the arm order alternates every
round so monotonic machine drift penalizes each arm equally often, and the
reported speedup is the **median of the paired json/sqlite time ratios**.

Results land in ``BENCH_orchestrator.json`` under ``store_backend``.  Run
directly (``python benchmarks/bench_store.py [--smoke]``) or via pytest;
``REPRO_BENCH_STORE_SMOKE=1`` (or ``--smoke``) shrinks the workload for CI
smoke runs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.core.campaign import CampaignResult
from repro.oracles.base import BugClass, Finding
from repro.orchestrator import CampaignJob
from repro.orchestrator.jobs import JobOutcome
from repro.orchestrator.store import ResultStore

TIMING_PATH = Path(__file__).parent.parent / "BENCH_orchestrator.json"

#: matrix size — the acceptance criteria are stated at 1k records
N_RECORDS = 1000
N_RECORDS_SMOKE = 150
#: interleaved A/B rounds (each round = one full save per arm)
SAVE_ROUNDS = 3
#: interleaved A/B rounds for the resume scan (cheap: more rounds)
SCAN_ROUNDS = 5
#: acceptance floors (full scale): sqlite must beat the per-file layout
#: by at least this much, median of paired ratios
SAVE_TARGET = 2.0
SCAN_TARGET = 5.0

_SOURCE = "contract C { function f() public { } }"


def _smoke() -> bool:
    return (os.environ.get("REPRO_BENCH_STORE_SMOKE") == "1"
            or "--smoke" in sys.argv)


def _synthetic_outcomes(count: int) -> list:
    """Deterministic matrix-shaped outcomes: unique job ids, realistic
    payload sizes, findings on a quarter of the cells so the sqlite
    findings projection is exercised too."""
    classes = sorted(BugClass, key=lambda bc: bc.value)
    outcomes = []
    for i in range(count):
        job = CampaignJob(name=f"C{i:04d}", source=_SOURCE,
                          preset="mufuzz", trial=0,
                          overrides={"iterations": 5})
        findings = []
        if i % 4 == 0:
            bug_class = classes[i % len(classes)]
            findings.append(Finding(
                bug_class=bug_class, contract=job.name, pc=40 + i % 60,
                line=3, description=f"{bug_class.value} at synthetic site",
                severity=("high", "medium", "low")[i % 3],
                confidence=0.75,
                witness=({"fn": "f", "args": [], "value": 0,
                          "sender": 1},)))
        result = CampaignResult(
            fuzzer="MuFuzz", contract=job.name, coverage=0.5 + (i % 40)
            / 100.0, iterations=200, total_steps=9000 + i,
            wall_time=1.0, findings=findings,
            curve=[(k * 50, round(k * 0.1, 2)) for k in range(1, 9)],
            seeds_in_queue=6, transactions=600)
        outcomes.append(JobOutcome(job=job, status="ok", result=result))
    return outcomes


def _save_arm(root: Path, backend: str, outcomes) -> float:
    """Persist every outcome into a fresh store; returns wall-clock
    seconds including the final flush (what a campaign run pays)."""
    store = ResultStore(root, backend=backend)
    start = time.perf_counter()
    for outcome in outcomes:
        store.save(outcome)
    store.flush()
    elapsed = time.perf_counter() - start
    store.close()
    return elapsed


def _scan_arm(root: Path, jobs) -> float:
    """Cold-open an existing store and answer the full resume scan."""
    store = ResultStore(root)
    start = time.perf_counter()
    fresh = store.fresh_ids(jobs)
    elapsed = time.perf_counter() - start
    store.close()
    assert len(fresh) == len(jobs), "resume scan lost records"
    return elapsed


def _median(values) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def run_store_bench(smoke: bool | None = None) -> dict:
    """Run both series and persist the entry in BENCH_orchestrator.json."""
    if smoke is None:
        smoke = _smoke()
    count = N_RECORDS_SMOKE if smoke else N_RECORDS
    outcomes = _synthetic_outcomes(count)
    jobs = [o.job for o in outcomes]

    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        tmp = Path(tmp)
        save_ratios = []
        save_total = {"json": 0.0, "sqlite": 0.0}
        for round_no in range(SAVE_ROUNDS):
            arms = (("json", "sqlite") if round_no % 2 == 0
                    else ("sqlite", "json"))
            elapsed = {}
            for arm in arms:
                elapsed[arm] = _save_arm(tmp / f"save-{round_no}-{arm}",
                                         arm, outcomes)
                save_total[arm] += elapsed[arm]
            save_ratios.append(elapsed["json"] / elapsed["sqlite"])

        # the scan arms reuse one populated store per backend (round 0's):
        # resume reads an existing artifact, it never rewrites it
        scan_roots = {arm: tmp / f"save-0-{arm}"
                      for arm in ("json", "sqlite")}
        scan_ratios = []
        scan_times = {"json": [], "sqlite": []}
        for round_no in range(SCAN_ROUNDS):
            arms = (("json", "sqlite") if round_no % 2 == 0
                    else ("sqlite", "json"))
            elapsed = {}
            for arm in arms:
                elapsed[arm] = _scan_arm(scan_roots[arm], jobs)
                scan_times[arm].append(elapsed[arm])
            scan_ratios.append(elapsed["json"] / elapsed["sqlite"])

    entry = {
        "records": count,
        "save": {
            "json_records_per_sec": round(
                count * SAVE_ROUNDS / save_total["json"]),
            "sqlite_records_per_sec": round(
                count * SAVE_ROUNDS / save_total["sqlite"]),
            "speedup": round(_median(save_ratios), 2),
            "target": SAVE_TARGET,
            "rounds": SAVE_ROUNDS,
        },
        "resume_scan": {
            "json_ms": round(_median(scan_times["json"]) * 1000, 2),
            "sqlite_ms": round(_median(scan_times["sqlite"]) * 1000, 2),
            "speedup": round(_median(scan_ratios), 2),
            "target": SCAN_TARGET,
            "rounds": SCAN_ROUNDS,
        },
        "methodology": (
            "paired interleaved A/B on identical synthetic records; arms "
            "run back to back per round with alternating order; speedup "
            "is the median of paired json/sqlite time ratios; save times "
            "include the final flush, scans cold-open the store; job "
            "fingerprints are memoized on the shared job objects, so "
            "warm rounds isolate store-side scan cost"),
        "smoke": smoke,
    }

    try:
        data = json.loads(TIMING_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data["store_backend"] = entry
    TIMING_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                           + "\n")
    return entry


def test_store_backend(report):
    """Pytest entry point: run the bench and report both speedups."""
    entry = run_store_bench()
    save, scan = entry["save"], entry["resume_scan"]
    lines = [
        f"result-store backend A/B ({entry['records']} records)",
        f"  save        {save['json_records_per_sec']:>8} rec/s json, "
        f"{save['sqlite_records_per_sec']:>8} rec/s sqlite  "
        f"→ {save['speedup']}x (target {save['target']}x)",
        f"  resume scan {scan['json_ms']:>8.2f} ms json, "
        f"{scan['sqlite_ms']:>8.2f} ms sqlite  "
        f"→ {scan['speedup']}x (target {scan['target']}x)",
    ]
    report("store_backend", "\n".join(lines))
    if entry["smoke"]:
        # smoke workloads are too small for the full-scale floors; just
        # require that sqlite never loses the pairing
        assert save["speedup"] >= 1.0 and scan["speedup"] >= 1.0, entry
    else:
        assert save["speedup"] >= SAVE_TARGET, (
            f"sqlite save throughput {save['speedup']}x is below the "
            f"{SAVE_TARGET}x acceptance floor")
        assert scan["speedup"] >= SCAN_TARGET, (
            f"sqlite resume scan {scan['speedup']}x is below the "
            f"{SCAN_TARGET}x acceptance floor")


if __name__ == "__main__":
    print(json.dumps(run_store_bench(), indent=2))

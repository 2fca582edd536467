"""Hot-path gates: three coarse checks that CI enforces on every push.

``perfbench/run.py --trace 1`` is the repo's benchmark and per-layer
breakdown.  This script keeps only the guards it does not make, each on a
deterministic fixed-sequence replay of the d2 corpus:

* ``cliff``     — replay and campaign throughput (state cache off) stay
  above 50k steps/s.  CI hardware varies, so this catches dispatch-table
  or state-reset collapses, not small drifts;
* ``telemetry`` — enabled telemetry costs at most 3% of replay time
  (median of paired on/off ratios, alternating arm order);
* ``oracles``   — a single-oracle and an oracle-free replay cost at most
  1.10x the all-oracles µs/tx (best of 3): detection never costs more
  when fewer oracles subscribe.

The oracle costs are written to ``BENCH_evm.json`` under
``oracle_overhead``.  Run it directly; it exits nonzero when any gate
fails::

    PYTHONPATH=src python benchmarks/bench_hot_path.py [--smoke]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.config import mufuzz_config
from repro.core.fuzzer import Fuzzer
from repro.corpus import generate_d2
from repro.telemetry import metrics as telemetry_metrics

EVM_BENCH_PATH = Path(__file__).parent.parent / "BENCH_evm.json"

#: contracts drawn from the deterministic d2 corpus
N_CONTRACTS = 6
N_CONTRACTS_SMOKE = 2
#: replay iterations (sequence re-executions) per contract; the campaign
#: workload runs this many iterations too
REPLAY_ITERS = 120
REPLAY_ITERS_SMOKE = 25
#: cliff guard: replay and campaign throughput floor
CLIFF_STEPS_PER_SEC = 50_000
#: interleaved on/off rounds per contract for the telemetry gate
OVERHEAD_ROUNDS = 3
#: enabled telemetry may cost at most this fraction of replay time
OVERHEAD_BUDGET = 0.03
#: repetitions per oracle selection; its wall clock is best-of
ORACLE_REPETITIONS = 3
#: restricted selections may cost at most this multiple of ``all``
ORACLE_HEADROOM = 1.10
#: oracle selections benched (config.bug_classes values)
ORACLE_VARIANTS = {
    "all": None,
    "single": ("IO",),
    "none": (),
}


def _bench_contracts(count: int) -> list:
    corpus = generate_d2()
    # Spread across the corpus so several bug templates / gate depths are
    # represented, deterministically.
    stride = max(1, len(corpus) // count)
    return [corpus[i * stride] for i in range(count)]


def _replay_fuzzer(contract, iters: int, **config) -> tuple:
    """A d2 fuzzer and the fixed seed sequence it replays."""
    fuzzer = Fuzzer(contract.artifact,
                    mufuzz_config(iterations=iters, rng_seed=7, **config))
    return fuzzer, fuzzer._fresh_seed()


def _replay(fuzzer, seed, iters: int) -> int:
    """Execute ``seed`` ``iters`` times; the machine steps it took."""
    return sum(fuzzer._execute(seed).steps for _ in range(iters))


def _replay_throughput(contracts, iters: int) -> dict:
    """Fixed-sequence replay: interpreter + per-iteration state reset.

    The cliff and telemetry gates pin the state cache off: with it on, a
    re-executed fixed sequence degenerates to a 100%-hit fast-forward."""
    steps = 0
    elapsed = 0.0
    for contract in contracts:
        fuzzer, seed = _replay_fuzzer(contract, iters,
                                      use_state_cache=False)
        start = time.perf_counter()
        steps += _replay(fuzzer, seed, iters)
        elapsed += time.perf_counter() - start
    return {"steps": steps, "wall_clock_s": round(elapsed, 3),
            "steps_per_sec": round(steps / elapsed)}


def _campaign_throughput(contracts, iters: int) -> dict:
    """Short full campaigns: the realistic per-iteration instruction mix."""
    steps = 0
    elapsed = 0.0
    for contract in contracts:
        fuzzer = Fuzzer(contract.artifact,
                        mufuzz_config(iterations=iters, rng_seed=7,
                                      use_state_cache=False))
        start = time.perf_counter()
        steps += fuzzer.run().total_steps
        elapsed += time.perf_counter() - start
    return {"steps": steps, "wall_clock_s": round(elapsed, 3),
            "steps_per_sec": round(steps / elapsed)}


def _telemetry_overhead(contracts, iters: int) -> dict:
    """Replay time with telemetry on over the same replay with it off.

    The effect under measurement (a few percent at most) is far below the
    noise floor of a shared CI machine, so each round times the two arms
    back to back on the same warmed fuzzer and records the on/off time
    ratio of that pair; the arm order alternates every round (monotonic
    frequency or thermal drift penalizes each arm equally often), and the
    overhead is the **median of the paired ratios** across every
    (contract, round) pair — robust to the asymmetric slow tail that
    wrecks mean and best-of estimators.
    """
    was_enabled = telemetry_metrics.enabled()
    ratios = []
    # keep at least ~12 paired samples even on the shrunk smoke workload
    rounds = max(OVERHEAD_ROUNDS, 12 // max(1, len(contracts)))
    try:
        for contract in contracts:
            fuzzer, seed = _replay_fuzzer(contract, iters,
                                          use_state_cache=False)
            fuzzer._execute(seed)  # warm the analysis/compile caches
            for round_no in range(rounds):
                arms = (False, True) if round_no % 2 == 0 else (True, False)
                elapsed = {}
                for on in arms:
                    if on:
                        telemetry_metrics.enable()
                    else:
                        telemetry_metrics.disable()
                    start = time.perf_counter()
                    _replay(fuzzer, seed, iters)
                    elapsed[on] = time.perf_counter() - start
                ratios.append(elapsed[True] / elapsed[False])
    finally:
        if was_enabled:
            telemetry_metrics.enable()
        else:
            telemetry_metrics.disable()
    ratios.sort()
    median = ratios[len(ratios) // 2]
    return {"overhead": round(median - 1.0, 4), "pairs": len(ratios)}


def _oracle_cost(contracts, iters: int, bug_classes) -> dict:
    """Fixed-sequence replay with one oracle selection; per-tx cost.

    Each repetition rebuilds the fuzzers and replays the same workload;
    the fastest repetition is reported — step, transaction and finding
    counts are identical across repetitions by construction."""
    best = None
    for _ in range(ORACLE_REPETITIONS):
        transactions = steps = findings = 0
        elapsed = 0.0
        for contract in contracts:
            fuzzer, seed = _replay_fuzzer(contract, iters,
                                          bug_classes=bug_classes)
            start = time.perf_counter()
            steps += _replay(fuzzer, seed, iters)
            elapsed += time.perf_counter() - start
            transactions += fuzzer.transactions
            findings += len(fuzzer.collector.findings)
        if best is None or elapsed < best[0]:
            best = (elapsed, transactions, steps, findings)
    elapsed, transactions, steps, findings = best
    return {
        "transactions": transactions,
        "steps": steps,
        "findings": findings,
        "wall_clock_s": round(elapsed, 3),
        "us_per_tx": round(elapsed / transactions * 1e6, 2),
    }


def _oracle_overhead(contracts, iters: int, smoke: bool) -> dict:
    """Cost of every oracle selection; persisted under ``oracle_overhead``."""
    entry: dict = {"smoke": smoke,
                   "contracts": [c.name for c in contracts]}
    for label, bug_classes in ORACLE_VARIANTS.items():
        entry[label] = _oracle_cost(contracts, iters, bug_classes)
    base = entry["all"]["us_per_tx"]
    entry["speedup_vs_all"] = {
        label: round(base / entry[label]["us_per_tx"], 2)
        for label in ("single", "none")}
    try:
        data = json.loads(EVM_BENCH_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data["oracle_overhead"] = entry
    EVM_BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                              + "\n")
    return entry


def run_gates(smoke: bool) -> list[str]:
    """Measure all three gates; print each reading, return the failures."""
    contracts = _bench_contracts(N_CONTRACTS_SMOKE if smoke else N_CONTRACTS)
    iters = REPLAY_ITERS_SMOKE if smoke else REPLAY_ITERS
    failures = []

    for workload, reading in (
            ("replay", _replay_throughput(contracts, iters)),
            ("campaign", _campaign_throughput(contracts, iters))):
        sps = reading["steps_per_sec"]
        print(f"cliff     {workload:<8} {sps:>10} steps/s "
              f"({reading['steps']} steps / {reading['wall_clock_s']}s, "
              f"floor {CLIFF_STEPS_PER_SEC})")
        if sps <= CLIFF_STEPS_PER_SEC:
            failures.append(f"{workload} collapsed: {sps} steps/s")

    overhead = _telemetry_overhead(contracts, iters)
    print(f"telemetry {overhead['overhead']:+.2%} replay overhead "
          f"(budget {OVERHEAD_BUDGET:.0%}, {overhead['pairs']} pairs)")
    if overhead["overhead"] > OVERHEAD_BUDGET:
        failures.append(f"telemetry costs {overhead['overhead']:.1%} of "
                        f"replay time (budget {OVERHEAD_BUDGET:.0%})")

    oracles = _oracle_overhead(contracts, iters, smoke)
    limit = oracles["all"]["us_per_tx"] * ORACLE_HEADROOM
    for label in ORACLE_VARIANTS:
        cost = oracles[label]
        print(f"oracles   {label:<8} {cost['us_per_tx']:>10} us/tx "
              f"({cost['transactions']} txs, {cost['findings']} finding "
              f"keys, {cost['wall_clock_s']}s)")
        if label != "all" and cost["us_per_tx"] > limit:
            failures.append(f"{label} oracles cost {cost['us_per_tx']} "
                            f"us/tx, over all x {ORACLE_HEADROOM} = "
                            f"{limit:.2f}")
    return failures


if __name__ == "__main__":
    failed = run_gates(smoke="--smoke" in sys.argv)
    for failure in failed:
        print(f"FAIL: {failure}")
    raise SystemExit(1 if failed else 0)

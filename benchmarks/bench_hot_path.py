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
  1.10x the all-oracles µs/tx (median of per-round ratios, rotating arm
  order): detection never costs more when fewer oracles subscribe.

Full-size runs write the oracle costs to ``BENCH_evm.json`` under
``oracle_overhead``; ``--smoke`` runs write nothing.  Run it directly; it
exits nonzero when any gate fails::

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
#: paired on/off ratios the telemetry gate's median is taken over; the
#: median's spread shrinks with their square root, and at 12 pairs it was
#: as wide as the 3% budget on a 2-core host
OVERHEAD_PAIRS = 48
#: enabled telemetry may cost at most this fraction of replay time
OVERHEAD_BUDGET = 0.03
#: rounds of the oracle gate; each replays every selection once
ORACLE_ROUNDS = 12
#: live seed replays per contract in one arm of an oracle round: ~15-25
#: ms per arm at ``--smoke`` on a 2-core host, well clear of timer noise
ORACLE_ROUND_ITERS = 20
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

    Every gate pins the state cache off: with it on, a re-executed fixed
    sequence degenerates to a 100%-hit fast-forward, so the machine never
    runs and no oracle sees a live event."""
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


def _median(values) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


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
    # the same number of paired samples at smoke and full size
    rounds = max(OVERHEAD_ROUNDS, OVERHEAD_PAIRS // max(1, len(contracts)))
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
    return {"overhead": round(_median(ratios) - 1.0, 4),
            "pairs": len(ratios)}


def _oracle_overhead(contracts, iters: int) -> dict:
    """Per-transaction replay cost of every oracle selection.

    The telemetry gate's estimator: each selection gets one fuzzer per
    contract (state cache off, so every replayed transaction executes live
    through the selection's event mask, dispatch tables and fused
    programs), warmed by one full replay, and every round replays each
    selection back to back on those fuzzers.  The arm order rotates every
    round, so each selection runs first, middle and last equally often,
    and each round yields one restricted/all µs/tx ratio per restricted
    selection.  The gate reads the **median** ratio; the reported µs/tx
    are the per-selection medians.
    """
    labels = list(ORACLE_VARIANTS)
    fuzzers = {}
    findings = {}
    for label, bug_classes in ORACLE_VARIANTS.items():
        fuzzers[label] = [_replay_fuzzer(contract, iters,
                                         bug_classes=bug_classes,
                                         use_state_cache=False)
                          for contract in contracts]
        for fuzzer, seed in fuzzers[label]:
            _replay(fuzzer, seed, iters)
        findings[label] = sum(len(fuzzer.collector.findings)
                              for fuzzer, _ in fuzzers[label])
    costs: dict = {label: [] for label in labels}
    transactions = {}
    for round_no in range(ORACLE_ROUNDS):
        shift = round_no % len(labels)
        for label in labels[shift:] + labels[:shift]:
            txs = 0
            elapsed = 0.0
            for fuzzer, seed in fuzzers[label]:
                before = fuzzer.transactions
                start = time.perf_counter()
                _replay(fuzzer, seed, ORACLE_ROUND_ITERS)
                elapsed += time.perf_counter() - start
                txs += fuzzer.transactions - before
            costs[label].append(elapsed / txs * 1e6)
            transactions[label] = txs
    entry: dict = {"contracts": [c.name for c in contracts],
                   "rounds": ORACLE_ROUNDS}
    for label in labels:
        entry[label] = {"findings": findings[label],
                        "transactions_per_round": transactions[label],
                        "us_per_tx": round(_median(costs[label]), 2)}
    entry["ratio_vs_all"] = {
        label: round(_median([cost / base for cost, base
                              in zip(costs[label], costs["all"])]), 3)
        for label in labels if label != "all"}
    return entry


def _save_oracle_overhead(entry: dict) -> None:
    """Persist a full-size oracle reading under ``oracle_overhead``."""
    try:
        data = json.loads(EVM_BENCH_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data["oracle_overhead"] = entry
    EVM_BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                              + "\n")


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

    oracles = _oracle_overhead(contracts, iters)
    if not smoke:
        _save_oracle_overhead(oracles)
    for label in ORACLE_VARIANTS:
        cost = oracles[label]
        ratio = oracles["ratio_vs_all"].get(label)
        vs_all = "" if ratio is None else f", x{ratio} all"
        print(f"oracles   {label:<8} {cost['us_per_tx']:>10} us/tx "
              f"({cost['transactions_per_round']} txs/round, "
              f"{cost['findings']} finding keys{vs_all})")
        if ratio is not None and ratio > ORACLE_HEADROOM:
            failures.append(f"{label} oracles cost x{ratio} the all-oracles "
                            f"us/tx (median of {oracles['rounds']} rounds), "
                            f"over x{ORACLE_HEADROOM}")
    return failures


if __name__ == "__main__":
    failed = run_gates(smoke="--smoke" in sys.argv)
    for failure in failed:
        print(f"FAIL: {failure}")
    raise SystemExit(1 if failed else 0)

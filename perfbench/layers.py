"""Per-layer metrics derived from a traced round.

Each metric names the end-to-end metric it should move (see
``BENCHMARK.json``).  Rates are per execution (one full transaction
sequence, mask probes included), per live transaction (one
``Chain.apply``) or per campaign (one ``Fuzzer`` construction; "per
contract" in the metric descriptions).
"""

from __future__ import annotations

#: name -> unit of every per-layer metric, in report order
UNITS = {
    "compiler.compile_ms": "ms",
    "compiler.cache_misses": "count",
    "compiler.misses_per_contract": "ratio",
    "analysis.surface_ms": "ms",
    "analysis.dataflow_ms": "ms",
    "analysis.reachability_us_per_exec": "us",
    "analysis.distance_us_per_exec": "us",
    "evm.fusion_compile_ms": "ms",
    "evm.machine_self_us_per_exec": "us",
    "evm.steps_per_exec": "count",
    "evm.machine_steps_per_s": "1/s",
    "evm.fusion_cache_misses": "count",
    "chain.apply_self_us_per_tx": "us",
    "chain.reset_us_per_exec": "us",
    "chain.deploy_ms": "ms",
    "oracles.dispatch_us_per_tx": "us",
    "oracles.replay_us_per_skipped_tx": "us",
    "core.setup_self_ms": "ms",
    "core.feedback_us_per_exec": "us",
    "core.encode_us_per_tx": "us",
    "core.statecache_us_per_exec": "us",
    "core.statecache_hit_rate": "ratio",
    "core.statecache_steps_saved": "count",
    "core.residual_us_per_exec": "us",
    "engine.mutation_self_us_per_exec": "us",
    "engine.selection_us_per_exec": "us",
    "engine.retention_us_per_exec": "us",
    "engine.new_edge_yield": "ratio",
    "engine.probe_share": "ratio",
    "orchestrator.worker_busy_share": "ratio",
    "orchestrator.dispatch_overhead_s": "s",
    "orchestrator.store_save_ms_per_cell": "ms",
    "orchestrator.store_flush_ms": "ms",
    "orchestrator.resume_scan_ms": "ms",
    "trace.accounted_share": "ratio",
    "trace_overhead": "ratio",
}

#: spans of the benchmark's own code, not of a layer
HARNESS_PREFIX = "bench."


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def campaign_layers(tracer, wall: float, cells: list, counters: dict,
                    distinct: int) -> dict:
    """Per-layer metrics of one traced pass of campaigns run in this
    process (a campaign round, or the inline pass of a matrix round).

    ``counters`` holds the pass's deltas of the process-global work
    counters (EVM steps, state-cache hits/misses/steps saved, compile and
    fusion cache misses); ``distinct`` the number of distinct contracts."""
    t = tracer.totals()

    def total(*names) -> float:
        return sum(t[n]["total"] for n in names if n in t)

    def self_time(*names) -> float:
        return sum(t[n]["self"] for n in names if n in t)

    def calls(name) -> int:
        return t[name]["calls"] if name in t else 0

    execs = calls("chain.reset")
    campaigns = calls("core.setup")
    steps = counters["evm_steps"]
    hits = counters["statecache_hits"]
    misses = counters["statecache_misses"]
    compile_misses = counters["compile_cache_misses"]
    machine_self = self_time("evm.machine")
    layer_self = sum(v["self"] for n, v in t.items()
                     if not n.startswith(HARNESS_PREFIX))
    return {
        "compiler.compile_ms": _div(total("compiler.compile") * 1e3,
                                    compile_misses),
        "compiler.cache_misses": compile_misses,
        "compiler.misses_per_contract": _div(compile_misses, distinct),
        "analysis.surface_ms": _div(total("analysis.surface") * 1e3,
                                    campaigns),
        "analysis.dataflow_ms": _div(
            total("analysis.dataflow", "analysis.prefix_init") * 1e3,
            campaigns),
        "analysis.reachability_us_per_exec": _div(
            total("analysis.reachability") * 1e6, execs),
        "analysis.distance_us_per_exec": _div(
            total("analysis.distance") * 1e6, execs),
        "evm.fusion_compile_ms": _div(total("evm.fusion") * 1e3, campaigns),
        "evm.machine_self_us_per_exec": _div(machine_self * 1e6, execs),
        "evm.steps_per_exec": _div(steps, execs),
        "evm.machine_steps_per_s": _div(steps, machine_self),
        "evm.fusion_cache_misses": counters["fusion_cache_misses"],
        "chain.apply_self_us_per_tx": _div(self_time("chain.apply") * 1e6,
                                           calls("chain.apply")),
        "chain.reset_us_per_exec": _div(total("chain.reset") * 1e6, execs),
        "chain.deploy_ms": _div(
            (total("chain.deploy")
             - tracer.nested_total("chain.deploy", "evm.fusion")) * 1e3,
            campaigns),
        "oracles.dispatch_us_per_tx": _div(
            total("oracles.dispatch") * 1e6, calls("oracles.dispatch")),
        "oracles.replay_us_per_skipped_tx": _div(
            total("oracles.replay") * 1e6, calls("oracles.replay")),
        "core.setup_self_ms": _div(self_time("core.setup") * 1e3, campaigns),
        "core.feedback_us_per_exec": _div(
            total("core.coverage", "core.energy") * 1e6, execs),
        "core.encode_us_per_tx": _div(total("core.encode") * 1e6,
                                      calls("core.encode")),
        "core.statecache_us_per_exec": _div(
            total("core.cache_match", "core.cache_restore",
                  "core.cache_note") * 1e6, execs),
        "core.statecache_hit_rate": _div(hits, hits + misses),
        "core.statecache_steps_saved": counters["statecache_steps_saved"],
        # time in Fuzzer.run (and in the probe executions nested in
        # mutate) that no timed child covers: per-tx glue, trace merge
        "core.residual_us_per_exec": _div(
            self_time("core.run", "core.probe") * 1e6, execs),
        "engine.mutation_self_us_per_exec": _div(
            self_time("engine.mutate") * 1e6, execs),
        "engine.selection_us_per_exec": _div(
            total("engine.select", "engine.observe") * 1e6, execs),
        "engine.retention_us_per_exec": _div(
            total("engine.retain") * 1e6, execs),
        "engine.new_edge_yield": _div(tracer.counts.get("core.coverage", 0),
                                      execs),
        "engine.probe_share": _div(calls("core.probe"), execs),
        # one client, one process: the campaign loop is its own worker
        "orchestrator.worker_busy_share": _div(sum(cells), wall),
        "orchestrator.dispatch_overhead_s": wall - sum(cells),
        "orchestrator.store_save_ms_per_cell": 0.0,
        "orchestrator.store_flush_ms": 0.0,
        "orchestrator.resume_scan_ms": 0.0,
        # self times of every layer span over the traced wall time: the
        # part of the wall clock the breakdown accounts for
        "trace.accounted_share": _div(layer_self, wall),
    }


def orchestrator_layers(tracer, wall: float, cells: list, workers: int,
                        resume_s: float) -> dict:
    """Scheduler-side metrics of a traced pool pass."""
    t = tracer.totals()
    saves = t.get("orchestrator.store_save", {"calls": 0, "total": 0.0})
    flush = t.get("orchestrator.store_flush", {"total": 0.0})
    busy = sum(cells)
    return {
        "orchestrator.worker_busy_share": _div(busy, workers * wall),
        "orchestrator.dispatch_overhead_s": wall - _div(busy, workers),
        "orchestrator.store_save_ms_per_cell": _div(saves["total"] * 1e3,
                                                    saves["calls"]),
        "orchestrator.store_flush_ms": flush["total"] * 1e3,
        "orchestrator.resume_scan_ms": resume_s * 1e3,
    }

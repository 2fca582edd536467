"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench/selftest.py`` from the repo root
(the file is named so the repo's own test suite does not collect it).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every object the tracer may replace, keyed by where it lives."""
    out = {}
    for _name, module_name, attr in tracing.TARGETS:
        module = __import__(module_name, fromlist=["_"])
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            out[(cls, meth)] = vars(cls).get(meth)
        else:
            for holder in tracing._holders_of(attr, getattr(module, attr)):
                out[(holder, attr)] = getattr(holder, attr)
    return out


def test_wrappers_restore_the_original_functions():
    with tracing.Tracer():
        pass  # imports every target module before the snapshot below
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        from repro.chain.blockchain import Chain
        from repro.core import fuzzer

        assert Chain.apply is not before[(Chain, "apply")]
        assert fuzzer.surface_for is not before[(fuzzer, "surface_for")]
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("escapes the traced block")
    assert _bindings() == before


def _fake_layers():
    """A module with a three-deep call nest, registered for import."""
    module = types.ModuleType("perfbench_fake_layers")

    class Outer:
        def run(self, inner):
            time.sleep(0.002)
            for _ in range(3):
                inner.step(Leaf())
            return 7

    class Inner:
        def step(self, leaf):
            time.sleep(0.001)
            leaf.work()

    class Leaf:
        def work(self):
            time.sleep(0.001)

    module.Outer, module.Inner, module.Leaf = Outer, Inner, Leaf
    sys.modules[module.__name__] = module
    return module


def test_self_time_accounting_closes_on_a_nested_example():
    fake = _fake_layers()
    targets = [("outer", fake.__name__, "Outer.run"),
               ("inner", fake.__name__, "Inner.step"),
               ("leaf", fake.__name__, "Leaf.work")]
    tracer = tracing.Tracer(targets)
    with tracer:
        with tracer.span("bench.cell"):
            assert fake.Outer().run(fake.Inner()) == 7
    totals = tracer.totals()
    assert [totals[n]["calls"] for n in ("outer", "inner", "leaf")] \
        == [1, 3, 3]
    # self times partition the root span exactly
    assert sum(t["self"] for t in totals.values()) \
        == pytest.approx(totals["bench.cell"]["total"], abs=1e-9)
    assert totals["outer"]["self"] == pytest.approx(
        totals["outer"]["total"] - totals["inner"]["total"], abs=1e-9)
    assert totals["inner"]["self"] == pytest.approx(
        totals["inner"]["total"] - totals["leaf"]["total"], abs=1e-9)
    assert totals["leaf"]["self"] == pytest.approx(totals["leaf"]["total"])
    assert totals["outer"]["self"] >= 0.002
    assert tracer.nested_total("outer", "leaf") \
        == pytest.approx(totals["leaf"]["total"])
    assert tracer.nested_total("leaf", "outer") == 0.0
    del sys.modules[fake.__name__]


def test_traced_campaign_accounts_for_its_wall_time():
    from repro.corpus import generate_d2
    from repro.core.config import preset_config
    from repro.core.fuzzer import Fuzzer

    contract = generate_d2()[0]
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("bench.cell"):
            Fuzzer(contract.source,
                   preset_config("mufuzz", iterations=60)).run()
    totals = tracer.totals()
    layer_self = sum(t["self"] for name, t in totals.items()
                     if not name.startswith("bench."))
    assert layer_self / totals["bench.cell"]["total"] > 0.95
    assert totals["chain.reset"]["calls"] == 60
    assert tracer.exec_id[-1] == 59
    # every wrapped layer did work in a mufuzz campaign
    for name in ("analysis.surface", "evm.machine", "evm.fusion",
                 "chain.apply", "oracles.dispatch", "core.coverage",
                 "core.encode", "core.cache_match", "engine.mutate",
                 "engine.select", "engine.retain"):
        assert totals[name]["calls"] > 0, name


SMOKE = {
    "campaign-d2": {"pool": 4, "contracts": 2, "iterations": 40,
                    "round_s": 1.0},
    "campaign-d3": {"pool": 2, "contracts": 1, "iterations": 15,
                    "round_s": 1.0},
    "matrix-d2": {"pool": 4, "contracts": 2, "iterations": 8,
                  "round_s": 1.0},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_output_check(workload, trace, capsys):
    params = dict(workloads.WORKLOADS[workload], **SMOKE[workload])
    bench = run.Bench(workload, seed=5, trace=trace, params=params)
    bench.run_rounds(seconds=2.0)
    bench.check()
    report = bench.report()
    log = capsys.readouterr().out
    assert report["correct"], log
    assert report["failed"] == 0
    assert report["attempted"] == bench.cells * len(bench.rounds) > 0
    assert set(report["metrics"]) == set(layers.UNITS if trace
                                         else run.E2E_UNITS)
    assert all(math.isfinite(m["value"]) for m in report["metrics"].values())
    assert "witness(es) replayed" in log


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    nonzero and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "campaign-d2",
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric_the_command_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == layers.UNITS
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)

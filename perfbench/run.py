"""The fuzzer's benchmark: end-to-end metrics, output checks, and a traced
per-layer breakdown.

Usage (from the repo root)::

    python3 perfbench/run.py --workload campaign-d2 --seed 1 --seconds 20 \\
        --trace 0

Workloads are ``campaign-d2``, ``campaign-d3`` and ``matrix-d2`` (see
``workloads.py`` and ``BENCHMARK.json``).  The seed drives the seeded
contract draws; the program only sees the drawn contracts and the RNG
seeds derived from it.

A run is a fixed number of *rounds*, as many as fill ``--seconds`` at the
workload's nominal round length.  Round ``k`` is one pass over draw ``k``
of the seed, in a fresh interpreter, so every round pays cold set-up.
Rates, wall time and cell times (one campaign, or one matrix job) pool
the run's rounds; set-up time and peak memory are medians over rounds.
The rounds of a run draw without replacement from the workload's pool of
contracts and, at the committed ``run_seconds``, cover it, so runs at
different seeds measure the same contracts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
draw untraced and then traced, and prints the per-layer metrics of
``layers.py`` plus ``trace_overhead`` (traced over untraced wall time,
same draws).  The spans of the first traced round are written to
``.perfbench_run/spans/<workload>-seed<n>.tsv.gz``.

Every run checks the fuzzer's outputs.  A cell (campaign or matrix job)
that fails a check counts in ``failed`` (and ``fail_ratio``) and makes
``correct`` false:

* every draw's campaign results, less wall time, hash to the digest
  recorded in ``expected.json`` for this workload, seed and draw, and its
  deterministic counts equal the recorded ones;
* digests and counts repeat exactly across runs at one seed: each run
  keeps them under ``.perfbench_run/seen/`` keyed by a hash of the code,
  and later runs compare with them;
* at a seed without a record, a reference round of draw 0 with the state
  cache, surface pruning and block fusion all off, under another hash
  seed, must produce the same digests;
* every finding's witness replays through ``Fuzzer.replay`` on a fresh
  fuzzer with the three tiers off (the reference path);
* traced rounds produce the same digests as untraced ones;
* on ``matrix-d2`` every cell is ``ok``, and the re-run of the finished
  matrix reports every cell cached with unchanged records.

``--record`` (maintenance) checks every draw against a reference round
and, when every check passes, stores the seed's digests and counts in
``expected.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
EXPECTED = HERE / "expected.json"

#: fewest rounds per untraced run: medians and spreads need two
MIN_ROUNDS = 2
#: a run must end within 180 s; no round starts after this many seconds
ROUND_DEADLINE = 140.0

#: end-to-end metric -> unit, as BENCHMARK.json lists them
E2E_UNITS = {
    "execs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "cell_s_p90": "s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a checkout of the repo", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(workloads.WORKLOADS))}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, bool(args.trace))
    bench.run_rounds(args.seconds)
    bench.check(record=args.record)
    report = bench.report()
    if report["correct"]:
        bench.remember(record=args.record)
    print(json.dumps(report))
    return 0


class Bench:
    """One run: rounds, checks, and the aggregated report.

    ``params`` overrides the workload's :data:`workloads.WORKLOADS` entry
    (the self-tests run smoke-sized workloads)."""

    def __init__(self, workload: str, seed: int, trace: bool,
                 params: dict | None = None) -> None:
        import workloads

        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.params = params or workloads.WORKLOADS[workload]
        #: expected.json records the committed workloads only
        self.recorded = params is None
        self.cells = (self.params["contracts"] * len(self.params["presets"])
                      * self.params.get("trials", 1))
        self.rounds: list = []      # round outputs, in run order
        self.crashed = 0            # rounds that produced no output
        self.failed_cells: set = set()   # (round index, cell index)
        self.problems: list = []    # check failures, for the log
        self.notes: list = []
        self.started = monotonic()

    # -- rounds -----------------------------------------------------------------

    def plan(self, seconds: float) -> list:
        """(draw index, traced) of every round of the run."""
        round_s = self.params["round_s"]
        if self.trace:
            pairs = max(1, round(seconds / (2 * round_s)))
            return [(k, traced) for k in range(pairs)
                    for traced in (False, True)]
        count = max(MIN_ROUNDS, round(seconds / round_s))
        return [(k, False) for k in range(count)]

    def spawn(self, k: int, reference: bool = False, **extra) -> dict | None:
        """Run one round in a fresh interpreter; None if it failed."""
        spec = {"workload": self.workload, "params": self.params,
                "seed": self.seed, "draw": k, "reference": reference,
                "trace": False, "work_dir": str(OUT / "work")}
        spec.update(extra)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        # timed rounds share one string-hash layout, which otherwise
        # moves a round's speed by several percent; the reference round
        # runs under a random one, so results are checked to not depend
        # on it
        if reference:
            env.pop("PYTHONHASHSEED", None)
        else:
            env["PYTHONHASHSEED"] = "0"
        budget = max(10.0, 170.0 - (monotonic() - self.started))
        # its own process group, so an overrun also stops its workers
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "round.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.problems.append(f"round {k} overran {budget:.0f} s")
            return None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-5:]
            self.problems.append(f"round {k} exited {proc.returncode}: "
                                 + " | ".join(tail))
            return None
        out = json.loads(lines[-1])
        out["draw"] = k
        out["traced"] = bool(extra.get("trace"))
        return out

    def run_rounds(self, seconds: float) -> None:
        spans = OUT / "spans" / f"{self.workload}-seed{self.seed}.tsv.gz"
        for k, traced in self.plan(seconds):
            if monotonic() - self.started > ROUND_DEADLINE:
                self.problems.append("ran out of time before round "
                                     f"{k}; the run is incomplete")
                break
            extra = {"trace": traced, "findings": not traced}
            if traced and k == 0:
                extra["spans_path"] = str(spans)
            out = self.spawn(k, **extra)
            if out is None:
                self.crashed += 1
            else:
                self.rounds.append(out)

    # -- checks -------------------------------------------------------------------

    def check(self, record: bool = False) -> None:
        if not self.rounds:
            self.problems.append("no round completed")
            return
        untraced = {}
        for r, out in enumerate(self.rounds):
            for index, message in out["errors"] + out["checks"]:
                self._fail(r, index, message)
            if not out["traced"]:
                untraced[out["draw"]] = r
        for r, out in enumerate(self.rounds):
            if out["traced"] and out["draw"] in untraced:
                self._compare(r, self.rounds[untraced[out["draw"]]]
                              ["digests"], "the untraced round")

        # a recording run checks against the reference path instead
        expected = (load_expected().get(self.workload, {}).get(
            str(self.seed), {}) if self.recorded and not record else {})
        seen = self._load_seen()
        for k, r in sorted(untraced.items()):
            out = self.rounds[r]
            mine = {"digest": combined_digest(out["digests"]),
                    "counts": out["counts"]}
            for label, table in (("the record", expected),
                                 ("an earlier run", seen)):
                theirs = table.get(str(k))
                if theirs is None:
                    continue
                if theirs["digest"] != mine["digest"]:
                    self._fail(r, -1, f"results differ from {label}")
                if theirs["counts"] != mine["counts"]:
                    self.problems.append(
                        f"draw {k}: counts {mine['counts']} differ from "
                        f"{label}: {theirs['counts']}")
        compared = [k for k in untraced if str(k) in expected]
        if compared:
            self.notes.append(f"draws {compared} compared with the record "
                              f"for seed {self.seed}")
        if seen:
            self.notes.append("digests and counts compared with an "
                              "earlier run at this seed")

        if record:
            reference_draws = sorted(untraced)
        elif "0" in expected or 0 not in untraced:
            reference_draws = []
        else:
            reference_draws = [0]
        for k in reference_draws:
            reference = self.spawn(k, reference=True)
            if reference is not None:
                self._compare(untraced[k], reference["digests"],
                              "the reference path (tiers off)")
                self.notes.append(f"draw {k} compared with a reference "
                                  f"round (tiers off)")
        self._replay_witnesses()

    def _compare(self, r: int, digests: list, against: str) -> None:
        mine = self.rounds[r]["digests"]
        if len(mine) != len(digests):
            self._fail(r, -1, f"cell count differs from {against}")
            return
        for index, (a, b) in enumerate(zip(mine, digests)):
            if a != b:
                self._fail(r, index, f"result differs from {against}")

    def _replay_witnesses(self) -> None:
        """Replay every finding of the untraced rounds on the reference
        path; a finding that does not re-trigger fails its cell."""
        import workloads
        from repro.compiler.cache import compile_cached
        from repro.core.fuzzer import Fuzzer
        from repro.oracles.base import Finding

        replayed = 0
        for r, out in enumerate(self.rounds):
            if out["traced"]:
                continue
            setups = self._cell_setups(out["draw"])
            for index, data in out["findings"]:
                source, name, config, supported = setups[index]
                why = json.dumps(data)
                try:
                    fuzzer = Fuzzer(
                        compile_cached(source, name),
                        config.variant(**workloads.REFERENCE_TIERS),
                        supported)
                    ok = fuzzer.replay(Finding.from_dict(data))
                except Exception as exc:  # a failed check, not a crash
                    ok = False
                    why = f"{type(exc).__name__}: {exc}"
                if not ok:
                    self._fail(r, index, f"witness does not replay: "
                                         f"{why[:200]}")
                replayed += 1
        self.notes.append(f"{replayed} finding witness(es) replayed on "
                          f"the reference path")

    def _cell_setups(self, k: int) -> list:
        """(source, contract name, config, supported classes) per cell of
        draw ``k``, in the order the round ran them."""
        import workloads
        from repro.orchestrator.jobs import build_matrix

        if self.params["kind"] == "campaign":
            return [(c.source, c.name,
                     workloads.campaign_config(self.params, rng_seed), None)
                    for c, rng_seed in workloads.draw(
                        self.params, self.workload, self.seed, k)]
        contracts, presets, kwargs = workloads.matrix_jobs(
            self.params, self.workload, self.seed, k)
        return [(job.source, job.contract, job.build_config(),
                 job.supported_set())
                for job in build_matrix(contracts, presets, **kwargs)]

    def _fail(self, r: int, cell: int, message: str) -> None:
        cells = range(self.cells) if cell < 0 else [cell]
        self.failed_cells.update((r, index) for index in cells)
        if len(self.problems) < 20:
            self.problems.append(f"round {r} (draw "
                                 f"{self.rounds[r]['draw']}) cell {cell}: "
                                 f"{message}")

    # -- remembering results ------------------------------------------------------

    def _seen_path(self) -> Path:
        return (OUT / "seen" / code_hash()
                / f"{self.workload}-seed{self.seed}-"
                  f"{params_hash(self.params)}.json")

    def _load_seen(self) -> dict:
        try:
            return json.loads(self._seen_path().read_text())
        except FileNotFoundError:
            return {}

    def remember(self, record: bool = False) -> None:
        """Keep this run's digests and counts for later runs (and, with
        ``record``, in ``expected.json``)."""
        mine = {str(out["draw"]): {"digest": combined_digest(out["digests"]),
                                   "counts": out["counts"]}
                for out in self.rounds if not out["traced"]}
        seen = self._load_seen()
        seen.update(mine)
        _write_json(self._seen_path(), seen)
        if record:
            data = load_expected()
            entry = data.setdefault(self.workload, {}).setdefault(
                str(self.seed), {})
            entry.update(mine)
            _write_json(EXPECTED, data)

    # -- report --------------------------------------------------------------------

    def report(self) -> dict:
        attempted = self.cells * (len(self.rounds) + self.crashed)
        failed = len(self.failed_cells) + self.cells * self.crashed
        correct = not self.problems and failed == 0 and bool(self.rounds)
        untraced = [r for r in self.rounds if not r["traced"]]
        traced = [r for r in self.rounds if r["traced"]]
        metrics = {}
        lines = [f"perfbench {self.workload} seed={self.seed} "
                 f"trace={int(self.trace)} rounds={len(self.rounds)}"]
        if untraced:
            env = untraced[0]["env"]
            lines.append(f"env: nproc={env['nproc']} "
                         f"python={env['python']} loadavg="
                         + ",".join(map(str, env["loadavg"])))
            e2e, detail = end_to_end(untraced)
            if not self.trace:
                metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                           for name, value in e2e.items()}
            for name, value in e2e.items():
                lines.append(f"{name:<14} {value:>12.6g} "
                             f"{E2E_UNITS[name]:<5} {detail[name]}")
        lines.append(f"{'fail_ratio':<14} "
                     f"{(failed / attempted if attempted else 1.0):>12.6g} "
                     f"ratio  {failed} of {attempted} cells failed")
        if self.trace and traced and untraced:
            metrics = per_layer(traced, untraced)
            for name, entry in metrics.items():
                lines.append(f"{name:<36} {entry['value']:>12.6g} "
                             f"{entry['unit']}")
        if untraced:
            totals = {}
            for out in untraced:
                for key, value in out["counts"].items():
                    totals[key] = totals.get(key, 0) + value
            lines.append("counts: " + json.dumps(totals, sort_keys=True))
        lines += [f"check: {note}" for note in self.notes]
        lines += [f"FAILED: {problem}" for problem in self.problems]
        print("\n".join(lines))
        return {"correct": correct, "attempted": max(1, attempted),
                "failed": failed, "metrics": metrics}


# -- helpers ---------------------------------------------------------------------------


def combined_digest(digests: list) -> str:
    text = ",".join(d or "error" for d in digests)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def code_hash() -> str:
    """Digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def params_hash(params: dict) -> str:
    text = json.dumps(params, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED.read_text())
    except FileNotFoundError:
        return {}


def _write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    tmp.replace(path)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(rounds: list) -> tuple:
    """The end-to-end metrics over a run's rounds, and a one-line detail
    per metric.  Rates and wall time pool every round: the rounds of a
    run cover the workload's pool, so the totals do not depend on how the
    seed grouped the contracts.  Set-up and memory are medians over
    rounds."""
    executions = sum(r["executions"] for r in rounds)
    run_s = sum(r["run_s"] for r in rounds)
    wall_s = sum(r["wall_s"] for r in rounds)
    cells = [t for r in rounds for t in r["cell_s"]]
    setups = [r["setup_s"] for r in rounds]
    peaks = [r["peak_rss_mb"] for r in rounds]
    n = len(rounds)
    values = {
        "execs_per_s": executions / run_s,
        "wall_s": wall_s / n,
        "setup_s": statistics.median(setups),
        "cells_per_s": len(cells) / wall_s,
        "cell_s_p50": percentile(cells, 0.5),
        "cell_s_p90": percentile(cells, 0.9),
        "peak_rss_mb": statistics.median(peaks),
    }
    detail = {
        "execs_per_s": f"{executions} executions in {run_s:.6g} s of "
                       f"campaign time over {n} rounds",
        "wall_s": f"mean over {n} rounds",
        "setup_s": f"median of {n} rounds, range "
                   f"{min(setups):.6g}..{max(setups):.6g}",
        "cells_per_s": f"{len(cells)} cells in {wall_s:.6g} s",
        "peak_rss_mb": f"median of {n} rounds, range "
                       f"{min(peaks):.6g}..{max(peaks):.6g}",
    }
    for name in ("cell_s_p50", "cell_s_p90"):
        beyond = sum(1 for t in cells if t > values[name])
        detail[name] = (f"{len(cells)} cells pooled over {n} rounds, "
                        f"{beyond} beyond")
    return values, detail


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over traced rounds of the per-layer metrics, plus the
    traced/untraced wall-time ratio over the same draws."""
    from layers import UNITS

    out = {}
    for name, unit in UNITS.items():
        if name == "trace_overhead":
            value = (sum(r["wall_s"] for r in traced)
                     / sum(r["wall_s"] for r in untraced))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())

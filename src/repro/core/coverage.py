"""Branch-coverage accounting for one campaign.

The coverage unit is a basic-block transition: one direction of one JUMPI
(§V-B "the number of basic block transitions covered, which is also referred
to as branch coverage").  The denominator is the compiler-known total over
the runtime code, so percentages are comparable across fuzzers.

The coverage curve is recorded with *bounded* memory: one sample per
execution until ``curve_capacity`` points accumulate, then the buffer is
decimated (every second point dropped) and the recording interval doubles.
A week-long time-budgeted campaign therefore stays O(curve_capacity)
instead of O(executions), while short campaigns keep their exact
one-point-per-execution curves and :meth:`sample_curve` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.artifacts import CompiledContract
from repro.evm.trace import ExecutionTrace

#: default bound on stored curve points; far above any iteration-budgeted
#: bench campaign, so their curves are bit-identical to unbounded recording
DEFAULT_CURVE_CAPACITY = 4096


@dataclass
class CoverageTracker:
    """Covered JUMPI directions for one deployed contract."""

    artifact: CompiledContract
    address: int
    covered: set = field(default_factory=set)   # (pc, taken)
    #: (cumulative executed steps, coverage fraction) samples
    curve: list = field(default_factory=list)
    total_steps: int = 0
    curve_capacity: int = DEFAULT_CURVE_CAPACITY
    #: executions observed (recorded or skipped by the interval)
    _samples_seen: int = 0
    #: record every k-th sample; doubles on each decimation
    _record_interval: int = 1

    @property
    def total(self) -> int:
        return self.artifact.total_branches

    def add_trace(self, trace: ExecutionTrace,
                  step_multiplier: float = 1.0) -> int:
        """Merge one execution; returns the number of newly covered edges."""
        new = 0
        for address, pc, taken in trace.branch_edges:
            if address != self.address:
                continue
            edge = (pc, taken)
            if edge not in self.covered:
                self.covered.add(edge)
                new += 1
        self.total_steps += int(trace.steps * step_multiplier)
        self._samples_seen += 1
        if self._samples_seen % self._record_interval == 0:
            self.curve.append((self.total_steps, self.coverage()))
            if len(self.curve) >= self.curve_capacity:
                # decimate keeping samples aligned with the doubled
                # interval (sample numbers divisible by the new interval)
                self.curve = self.curve[1::2]
                self._record_interval *= 2
        return new

    def coverage(self) -> float:
        """Covered fraction in [0, 1]."""
        if self.total == 0:
            return 1.0
        return min(1.0, len(self.covered) / self.total)

    def sample_curve(self, points: int = 20) -> list:
        """Down-sample the curve to ``points`` (for plotting/benches)."""
        if not self.curve:
            return []
        if len(self.curve) <= points:
            return list(self.curve)
        step = len(self.curve) / points
        return [self.curve[min(len(self.curve) - 1, int(i * step))]
                for i in range(points)] + [self.curve[-1]]

    # -- checkpoint serialization ---------------------------------------------

    def state_dict(self) -> dict:
        return {
            "covered": sorted([pc, taken] for pc, taken in self.covered),
            "curve": [[int(steps), float(cov)] for steps, cov in self.curve],
            "total_steps": self.total_steps,
            "samples_seen": self._samples_seen,
            "record_interval": self._record_interval,
        }

    def restore_state(self, data: dict) -> None:
        self.covered = {(int(pc), bool(taken))
                        for pc, taken in data.get("covered", ())}
        self.curve = [(int(steps), float(cov))
                      for steps, cov in data.get("curve", ())]
        self.total_steps = int(data.get("total_steps", 0))
        self._samples_seen = int(data.get("samples_seen", len(self.curve)))
        self._record_interval = int(data.get("record_interval", 1))

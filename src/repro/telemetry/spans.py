"""Span-based stage tracing: per-span wall-time/count aggregation.

A :class:`Span` is a module-level singleton context manager wrapping one
named region of the pipeline (``engine.execution``, ``checkpoint.write``,
``chain.journal_reset``, ...).  Entering and leaving a span accumulates
into two numbers — entry count and total wall seconds — rather than
appending per-event log records, so a span wrapped around a region that
runs millions of times per campaign stays O(1) in memory.

Spans are reentrancy-safe: a region that re-enters itself (or is reached
again beneath another span) only times the outermost entry, so totals
never double-count nested wall time.  Sibling spans may overlap (the
``engine.mutation`` span includes the probe executions that also tick
``engine.execution``); span totals are a taxonomy of where wall time was
spent, not a disjoint partition of it.

Stage spans (``stage=True``) additionally maintain the *current stage*
stack, which worker heartbeats sample so a post-mortem of a killed worker
shows where in the pipeline it was.

While telemetry is disabled a span's ``__enter__`` is a single attribute
load plus one predictable branch — spans never wrap the per-opcode EVM
loop, only per-iteration/per-transaction boundaries, so this is far off
the hot path.
"""

from __future__ import annotations

from time import perf_counter

from repro.telemetry.metrics import REGISTRY

__all__ = ["Span", "span", "current_stage"]

#: innermost-last stack of active stage-span names (enabled runs only)
_stage_stack: list = []


class Span:
    """One named, aggregating trace region; use as a context manager."""

    __slots__ = ("name", "count", "total", "stage", "_live", "_depth",
                 "_t0")

    def __init__(self, name: str, stage: bool = False,
                 registry=REGISTRY) -> None:
        self.name = name
        self.stage = stage
        self.count = 0
        self.total = 0.0
        self._depth = 0
        self._t0 = 0.0
        self._live = registry.enabled
        registry.register_span(self)

    def __enter__(self) -> "Span":
        if self._live:
            if self._depth == 0:
                self._t0 = perf_counter()
                if self.stage:
                    _stage_stack.append(self.name)
            self._depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._live and self._depth:
            self._depth -= 1
            if self._depth == 0:
                self.total += perf_counter() - self._t0
                self.count += 1
                if self.stage and _stage_stack \
                        and _stage_stack[-1] == self.name:
                    _stage_stack.pop()
        return False

    def set_totals(self, count: int, total_s: float) -> None:
        """Overwrite the aggregates — for snapshot-time collectors
        mirroring a region that times itself with raw ``perf_counter``
        calls because even a live span's enter/exit would be too hot
        (see the per-transaction oracle dispatch)."""
        self.count = count
        self.total = total_s

    def _reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self._depth = 0


def span(name: str, stage: bool = False) -> Span:
    """Create (or fetch) the aggregating span named ``name``."""
    existing = REGISTRY._spans.get(name)
    if existing is not None:
        return existing
    return Span(name, stage=stage)


def current_stage() -> str | None:
    """The innermost active stage-span name (None when idle/disabled)."""
    return _stage_stack[-1] if _stage_stack else None

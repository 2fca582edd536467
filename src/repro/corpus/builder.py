"""Corpus infrastructure: generated-contract records and compilation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.codegen import compile_source


@dataclass
class GeneratedContract:
    """One corpus entry: source, ground truth, and lazy artifact."""

    name: str
    source: str
    #: annotated real bugs (ground truth for TP/FN scoring)
    expected_bugs: set = field(default_factory=set)
    #: benign patterns that imprecise oracles may flag (FP candidates)
    benign_lookalikes: set = field(default_factory=set)
    size_class: str = "small"  # 'small' | 'large'
    _artifact: object = None

    @property
    def artifact(self):
        """Compile on first use (cached)."""
        if self._artifact is None:
            self._artifact = compile_source(self.source, self.name)
        return self._artifact

    @property
    def instruction_count(self) -> int:
        return self.artifact.instruction_count


def compile_corpus(contracts) -> list:
    """Force-compile every entry (raises on any front-end failure), returning
    the list for chaining.  Used by tests to assert generator validity."""
    for contract in contracts:
        _ = contract.artifact
    return list(contracts)

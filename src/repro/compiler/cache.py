"""Process-local cache over :func:`repro.compiler.compile_source`.

``compile_cached`` is the entry point the orchestrator's execution
backends and the CLI share.  Entries live in a
:class:`~repro.cache.ContentCache` keyed on ``(sha256(source), contract)``
— content, not identity — so a contract fuzzed across many presets ×
trials compiles once per process instead of once per job.  The persistent
pool backend relies on this: each long-lived worker keeps its cache warm
across the jobs it pulls, and reports per-job hit/miss deltas back to the
scheduler for the matrix-level stats.

Compiled artifacts are treated as immutable by every consumer (the fuzzer,
the analyses, the oracles), so handing the same :class:`CompiledContract`
object to consecutive campaigns is safe; the orchestrator's determinism
guard verifies this empirically by comparing cached-backend output
byte-for-byte against fresh-compile backends.
"""

from __future__ import annotations

from repro.cache import ContentCache
from repro.compiler.codegen import compile_source


class CompileCache(ContentCache):
    """The compile cache: at most 64 artifacts (each a few KB)."""

    def __init__(self) -> None:
        super().__init__("compile", compile_source, 64)

    def get(self, source: str, contract_name: str | None = None):
        """The compiled artifact for ``source``; compiles on a miss."""
        return super().get(source, contract_name)


#: the per-process cache behind :func:`compile_cached`
_CACHE = CompileCache()


def compile_cached(source: str, contract_name: str | None = None):
    """Compile MiniSol ``source`` through the process-local cache.

    Same signature and result as :func:`repro.compiler.compile_source`;
    repeated calls with identical source return the same artifact object.
    """
    return _CACHE.get(source, contract_name)


#: cumulative ``{"hits", "misses", "entries", "build_seconds"}``
compile_cache_stats = _CACHE.stats

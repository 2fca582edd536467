"""The process-local compile cache behind the execution backends."""

from __future__ import annotations

import pytest

from repro.cache import CACHES
from repro.compiler import compile_source
from repro.compiler.cache import (
    CompileCache,
    compile_cache_stats,
    compile_cached,
)
from repro.lang.errors import MiniSolError
from tests.conftest import CROWDSALE_SOURCE, GAME_SOURCE


class TestCompileCache:
    def test_hit_returns_the_same_artifact_object(self):
        cache = CompileCache()
        first = cache.get(CROWDSALE_SOURCE)
        second = cache.get(CROWDSALE_SOURCE)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_key_covers_source_and_contract_name(self):
        cache = CompileCache()
        cache.get(CROWDSALE_SOURCE)
        cache.get(GAME_SOURCE)
        cache.get(CROWDSALE_SOURCE, "Crowdsale")  # explicit name: new key
        assert cache.misses == 3 and cache.hits == 0
        cache.get(CROWDSALE_SOURCE, "Crowdsale")
        assert cache.hits == 1

    def test_lru_evicts_the_oldest_entry(self):
        cache = CompileCache()
        cache.capacity = 1
        cache.get(CROWDSALE_SOURCE)
        cache.get(GAME_SOURCE)     # evicts Crowdsale
        cache.get(CROWDSALE_SOURCE)  # miss again
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 1

    def test_compile_error_leaves_no_entry(self):
        cache = CompileCache()
        with pytest.raises(MiniSolError):
            cache.get("contract Broken { function f( public")
        assert len(cache) == 0
        assert cache.misses == 1

    def test_cached_artifact_matches_a_fresh_compile(self):
        cached = compile_cached(CROWDSALE_SOURCE)
        fresh = compile_source(CROWDSALE_SOURCE)
        assert cached.name == fresh.name
        assert cached.runtime_code == fresh.runtime_code
        assert cached.init_code == fresh.init_code
        assert sorted(cached.branch_info) == sorted(fresh.branch_info)

    def test_module_level_cache_counts_and_clears(self):
        empty = {"hits": 0, "misses": 0, "entries": 0, "build_seconds": 0.0}
        CACHES["compile"].clear()
        assert compile_cache_stats() == empty
        compile_cached(CROWDSALE_SOURCE)
        compile_cached(CROWDSALE_SOURCE)
        after = compile_cache_stats()
        assert after["hits"] == 1 and after["misses"] == 1
        assert after["entries"] == 1
        CACHES["compile"].clear()
        assert compile_cache_stats() == empty

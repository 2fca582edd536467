"""The content-addressed cache primitive behind the four per-code caches.

The mechanics run against each registered process cache (``compile``,
``analysis``, ``surface``, ``fusion``) with its build swapped for a
recording stub, so every cache is checked by the same tests; what each
cache builds is covered next to its module (cached-equals-fresh,
mask specialization, sharing across machines).
"""

from __future__ import annotations

import time

import pytest

import repro.analysis.surface  # noqa: F401  (registers "surface")
import repro.compiler.cache  # noqa: F401  (registers "compile")
import repro.evm.fusion  # noqa: F401  (registers "fusion")
from repro.cache import CACHES, ContentCache
from repro.compiler.cache import CompileCache
from repro.evm import analysis
from repro.telemetry import metrics

NAMES = ("compile", "analysis", "surface", "fusion")


def _data(cache, i: int):
    """A fresh object per call: source text for the compile cache,
    bytes for the code caches."""
    text = f"input-{i}"
    return text if cache.name == "compile" else text.encode()


def _clone(data):
    """An equal but distinct object."""
    if isinstance(data, str):
        clone = "".join(list(data))
    else:
        clone = bytes(bytearray(data))
    assert clone == data and clone is not data
    return clone


@pytest.fixture(params=NAMES)
def stubbed(request, monkeypatch):
    """A registered cache, emptied, whose builds are recorded stubs."""
    cache = CACHES[request.param]
    builds = []

    def build(data, *variant):
        builds.append((data, variant))
        return object()

    cache.clear()
    monkeypatch.setattr(cache, "build", build)
    yield cache, builds
    cache.clear()


def test_four_process_caches_are_registered():
    assert set(CACHES) == set(NAMES)
    assert analysis.analyze_code.__self__ is CACHES["analysis"]
    # a second CompileCache (as tests build) leaves the registered one
    assert CompileCache() is not CACHES["compile"]
    assert isinstance(CACHES["compile"], CompileCache)


def test_equal_but_distinct_object_hits_the_sha_path(stubbed):
    cache, builds = stubbed
    data = _data(cache, 0)
    first = cache.get(data)
    assert cache.get(_clone(data)) is first
    assert len(builds) == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_same_object_hits_the_identity_memo(stubbed):
    cache, builds = stubbed
    data = _data(cache, 0)
    first = cache.get(data)
    assert cache.get(data) is first
    assert len(builds) == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_variants_are_kept_apart(stubbed):
    cache, builds = stubbed
    data = _data(cache, 0)
    one = cache.get(data, 1)
    two = cache.get(data, 2)
    assert one is not two
    assert [variant for _, variant in builds] == [(1,), (2,)]
    for _ in range(2):
        assert cache.get(data, 1) is one
        assert cache.get(_clone(data), 2) is two
    assert (cache.hits, cache.misses) == (4, 2)
    assert len(cache) == 2


def test_lru_is_bounded_and_evicts_the_least_recent(stubbed):
    cache, builds = stubbed
    capacity = cache.capacity
    keep = [_data(cache, i) for i in range(capacity)]
    for data in keep:
        cache.get(data)
    assert len(cache) == capacity
    # refresh the oldest through the sha path, then overflow by one
    cache.get(_data(cache, 0))
    cache.get(_data(cache, capacity))
    assert cache.stats()["entries"] == capacity
    assert cache.misses == capacity + 1
    cache.get(_data(cache, 0))          # refreshed: still cached
    assert cache.misses == capacity + 1
    cache.get(_data(cache, 1))          # least recent: evicted
    assert cache.misses == capacity + 2
    assert len(builds) == capacity + 2


def test_build_error_leaves_no_entry_and_counts_a_miss(stubbed,
                                                       monkeypatch):
    cache, builds = stubbed
    good = cache.build

    def broken(data, *variant):
        raise ValueError("no artifact")

    monkeypatch.setattr(cache, "build", broken)
    data = _data(cache, 0)
    with pytest.raises(ValueError):
        cache.get(data)
    assert len(cache) == 0
    assert cache.stats() == {"hits": 0, "misses": 1, "entries": 0,
                             "build_seconds": 0.0}
    monkeypatch.setattr(cache, "build", good)
    artifact = cache.get(data)  # no memo entry either: builds afresh
    assert cache.get(data) is artifact
    assert len(builds) == 1
    assert (cache.hits, cache.misses) == (1, 2)


def test_stats_time_builds_only_and_clear_resets(stubbed, monkeypatch):
    cache, _builds = stubbed

    def slow(data, *variant):
        time.sleep(0.002)
        return object()

    monkeypatch.setattr(cache, "build", slow)
    data = _data(cache, 0)
    cache.get(data)
    built = cache.build_seconds
    assert built >= 0.002
    cache.get(data)
    cache.get(_clone(data))
    assert cache.stats() == {"hits": 2, "misses": 1, "entries": 1,
                             "build_seconds": built}
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0,
                             "build_seconds": 0.0}
    cache.get(data)  # the identity memo is cleared too
    assert cache.misses == 1


def test_collector_mirrors_each_cache_into_telemetry(stubbed):
    cache, _builds = stubbed
    data = _data(cache, 0)
    cache.get(data)
    cache.get(data)
    counters = metrics.snapshot()["counters"]
    prefix = f"cache.{cache.name}"
    assert counters[f"{prefix}.hits"] == 1
    assert counters[f"{prefix}.misses"] == 1
    assert counters[f"{prefix}.build_seconds"] == cache.build_seconds


@pytest.mark.parametrize("name", NAMES)
def test_a_cache_built_in_a_test_does_not_displace_the_registered_one(
        name):
    registered = CACHES[name]
    local = ContentCache(name, lambda data: len(data), 2)
    assert local.get(b"abc") == 3
    assert CACHES[name] is registered

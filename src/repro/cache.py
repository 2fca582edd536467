"""One content-addressed cache for the pure per-code artifacts.

Compiling a contract, analyzing its bytecode, deriving its vulnerability
surface and fusing its blocks are each a pure function of the code's
bytes.  A long-lived pool worker fuzzes many campaigns over the same few
contracts, so each of those artifacts is built once per process and then
shared: :class:`ContentCache` is the one primitive behind all four.

Lookups go through two tiers:

* an **identity memo** keyed on ``(id(data), variant)``.  Code bytes live
  in stable objects (``Account.code``, ``artifact.runtime_code``, a job's
  source string), so a repeated lookup of the very same object skips the
  hash.  An entry is trusted only when it holds the object it was looked
  up with (``memo[0] is data``): holding the object pins its id, so a
  recycled id can never alias another object's artifact.
* an **LRU** keyed on ``(sha256(data), variant)`` (``str`` hashed as
  UTF-8): equal bytes in a distinct object share the entry.

``variant`` carries whatever else the artifact depends on (the contract
name of a compile, the event mask of a fused program), so two
specializations of one code never share an entry.

Every cache built under a new name is registered in :data:`CACHES`, and
one snapshot-time collector mirrors each into the telemetry counters
``cache.<name>.hits`` / ``.misses`` / ``.build_seconds`` — the lookup path
itself never touches an instrument.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from time import perf_counter

from repro.telemetry import metrics as _metrics

__all__ = ["CACHES", "ContentCache"]

#: the process caches by name (``compile``, ``analysis``, ``surface``,
#: ``fusion``); the first cache built under a name keeps it
CACHES: dict = {}


class ContentCache:
    """A bounded LRU of ``build(data, *variant)`` keyed on content."""

    def __init__(self, name: str, build, capacity: int) -> None:
        self.name = name
        self.build = build
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict = OrderedDict()
        self._memo: dict = {}
        self.hits = 0
        self.misses = 0
        self.build_seconds = 0.0
        CACHES.setdefault(name, self)

    def get(self, data, *variant):
        """The artifact for ``data`` under ``variant``; builds on a miss."""
        memo_key = (id(data), variant)
        memo = self._memo.get(memo_key)
        if memo is not None and memo[0] is data:
            self.hits += 1
            return memo[1]
        raw = data.encode("utf-8") if isinstance(data, str) else data
        key = (hashlib.sha256(raw).digest(), variant)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            self.hits += 1
            entries.move_to_end(key)
        else:
            self.misses += 1
            # build before inserting: a build error leaves no entry behind
            started = perf_counter()
            entry = self.build(data, *variant)
            self.build_seconds += perf_counter() - started
            entries[key] = entry
            if len(entries) > self.capacity:
                entries.popitem(last=False)
        if len(self._memo) >= self.capacity:
            self._memo.clear()
        self._memo[memo_key] = (data, entry)
        return entry

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries),
                "build_seconds": self.build_seconds}

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._memo.clear()
        self.hits = 0
        self.misses = 0
        self.build_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)


def _collect_cache_counters() -> None:
    for name, cache in CACHES.items():
        _metrics.counter(f"cache.{name}.hits").set_total(cache.hits)
        _metrics.counter(f"cache.{name}.misses").set_total(cache.misses)
        _metrics.counter(f"cache.{name}.build_seconds").set_total(
            cache.build_seconds)


_metrics.register_collector(_collect_cache_counters)

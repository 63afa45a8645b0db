"""Caching primitives for the hot paths (ROADMAP: "as fast as the
hardware allows").

Two cache shapes cover every hot path in the library:

* :class:`LRUCache` — a bounded least-recently-used map for results that
  never go stale, e.g. compiled XPath expressions keyed by source text
  (an XPath value is immutable, so sharing one compiled object across
  callers is safe).

* :class:`GenerationalCache` — a bounded LRU whose entries are stamped
  with the *generation* of the state they were computed from.  Mutable
  authorities (a :class:`~repro.core.policy.PolicyBase`, an XML
  document) carry a monotonically increasing generation counter bumped
  by every mutation; a lookup supplies the current generation and any
  entry with a different stamp is a miss.  Invalidation therefore costs
  one integer increment — no scanning, no explicit eviction — and a
  cached decision can never outlive the policy state that produced it.

Both caches take an internal lock around their bookkeeping, so reads
from the parallel dissemination path (:mod:`repro.xmlsec.dissemination`)
are safe; the cached *values* are immutable or treated as read-only by
convention (documented per call site).

This module deliberately imports nothing from the rest of ``repro`` so
that the lowest layers (``xmldb.xpath``) can use it without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

#: Sentinel distinguishing "not cached" from a cached None/False value.
MISS: Any = object()


@dataclass
class CacheStats:
    """Hit/miss bookkeeping, exposed so benchmarks can report rates."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_drops: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "stale_drops": self.stale_drops,
                "hit_rate": round(self.hit_rate, 4)}


class LRUCache:
    """A bounded least-recently-used mapping.

    ``get`` returns :data:`MISS` when absent so that falsy values are
    cacheable.  Not generation-aware: use it only for immutable results
    (compiled XPaths, derived keys), never for policy decisions.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class Generation:
    """A monotonically increasing mutation counter with change hooks.

    Authorities embed one of these; every mutating operation calls
    :meth:`bump`, which also fires any registered invalidation hooks
    (external caches that cannot be generation-stamped, e.g. a path
    index, subscribe here).
    """

    def __init__(self) -> None:
        self._value = 0
        self._hooks: list[Callable[[], None]] = []

    @property
    def value(self) -> int:
        return self._value

    def bump(self) -> int:
        self._value += 1
        for hook in self._hooks:
            hook()
        return self._value

    def add_hook(self, hook: Callable[[], None]) -> None:
        self._hooks.append(hook)


@dataclass
class _Stamped:
    stamp: Hashable
    value: Any
    # Strong references pinning the objects a key identifies by ``id()``
    # or identity-hash, so a dead object's recycled id can never alias a
    # live cache entry.
    pins: tuple = ()


class GenerationalCache:
    """A bounded LRU whose entries self-invalidate by generation stamp.

    ``get(key, stamp)`` hits only when the stored stamp equals *stamp*
    (stamps may be tuples, e.g. ``(policy_generation, doc_version)``).
    A stale entry is dropped on sight, so a burst of mutations costs
    nothing until the next lookup.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, _Stamped] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, stamp: Hashable) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return MISS
            if entry.stamp != stamp:
                del self._entries[key]
                self.stats.stale_drops += 1
                self.stats.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.value

    def put(self, key: Hashable, stamp: Hashable, value: Any,
            pins: tuple = ()) -> None:
        with self._lock:
            self._entries[key] = _Stamped(stamp, value, pins)
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

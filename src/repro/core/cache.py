"""A bounded least-recently-used cache, and the one coherence rule it
serves under.

A cached value is only ever a function of its key.  Anything that can
change the answer belongs in the key: compiled XPaths are keyed by
their source text; the xmlsec label, view and packaging caches fold
``(policy generation, document version)`` into theirs, so a policy
add/remove or a document edit simply misses, and the superseded entries
age out under the same ``maxsize`` bound; the snapshot layer keys by
frozen-node identity, which never goes stale.  There is no
invalidation protocol to get wrong.

The cache takes an internal lock around its bookkeeping, so reads from
the parallel dissemination path (:mod:`repro.xmlsec.dissemination`)
are safe; the cached *values* are immutable or treated as read-only by
convention (documented per call site).

This module deliberately imports nothing from the rest of ``repro`` so
that the lowest layers (``xmldb.xpath``) can use it without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

#: Sentinel distinguishing "not cached" from a cached None/False value.
MISS: Any = object()


@dataclass
class CacheStats:
    """Hit/miss bookkeeping, exposed so benchmarks can report rates."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, int | float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4)}


class LRUCache:
    """A bounded least-recently-used mapping.

    ``get`` returns :data:`MISS` when absent so that falsy values are
    cacheable.  The key must determine the value: fold every stamp the
    value depends on into it.
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

    def __contains__(self, key: Hashable) -> bool:
        """Membership alone: moves no entry and counts no probe."""
        return key in self._entries

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

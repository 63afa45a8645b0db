"""Consistent-hash routing of keys to shards.

The sharded policy router
(:class:`~repro.gateway.engine.EpochalShardRouter`) routes resource-path
heads through this ring, and the replica router routes its keys the
same way.

Why a *ring* rather than ``hash(key) % n``: consistent hashing moves
only ``~1/n`` of the keys when a shard is added or removed, which is
what makes resharding a live system feasible.  Each shard owns
``replicas`` points on a 64-bit ring derived from SHA-256 — fully
deterministic across processes (the builtin ``hash`` is salted per
process and is banned here by LINT-HASH).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.errors import ConfigurationError
from repro.crypto.hashing import sha256_int

_RING_BITS = 64
_RING_MASK = (1 << _RING_BITS) - 1


def _point(label: str) -> int:
    return sha256_int(f"ring:{label}") & _RING_MASK


class ConsistentHashRouter:
    """Maps string keys to shard indices ``0..shard_count-1``.

    The ring is built once at construction; ``shard_for`` is two hash
    computations and a binary search.  Routing depends only on
    ``(shard_count, replicas, key)``, never on insertion order or
    process state, so two routers with equal parameters agree on every
    key — the property every scatter-gather merge in this package
    relies on.
    """

    def __init__(self, shard_count: int, replicas: int = 64) -> None:
        if shard_count < 1:
            raise ConfigurationError("shard count must be >= 1")
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.shard_count = shard_count
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(shard_count):
            for replica in range(replicas):
                points.append((_point(f"{shard}:{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning *key*: the first ring point at or after the
        key's hash, wrapping at the top of the ring."""
        position = _point(f"key:{key}")
        index = bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._shards[index]

    def partition(self, keys: list[str]) -> dict[int, list[str]]:
        """Group *keys* by owning shard; input order is kept per shard
        and shards are emitted in index order (deterministic)."""
        grouped: dict[int, list[str]] = {}
        for key in keys:
            grouped.setdefault(self.shard_for(key), []).append(key)
        return {shard: grouped[shard] for shard in sorted(grouped)}

    def spread(self, keys: list[str]) -> dict[int, int]:
        """Keys-per-shard histogram (for balance diagnostics and the
        A7 ablation)."""
        counts: dict[int, int] = {}
        for key in keys:
            shard = self.shard_for(key)
            counts[shard] = counts.get(shard, 0) + 1
        return {shard: counts[shard] for shard in sorted(counts)}

"""Bucketed key-value store summarized by an incremental Merkle tree.

Replica state is a flat ``key -> value`` map partitioned into a fixed
number of buckets by ``sha256(key) % bucket_count``.  Each bucket's
canonical serialization is a Merkle leaf, so:

* the tree **root is the state digest** — two replicas hold the same
  state iff their roots are byte-identical (the "prove equality by
  digest, not assertion" discipline the trust-brokerage model asks of
  mutually distrusting copies);
* a write **hashes nothing**: it marks its bucket dirty, and the
  next digest read (:attr:`BucketedMerkleStore.root` /
  :attr:`~BucketedMerkleStore.tree`) settles every dirty bucket in one
  batched pass (:meth:`~repro.merkle.tree.MerkleTree.update_leaves`),
  rehashing each changed ancestor once — O(log buckets) for one
  write, never more than a full rebuild for many.  A digest is paid
  for when two copies are compared, not on every put;
* divergence between two replicas localizes to the buckets whose
  leaf hashes differ, which the anti-entropy diff finds by descending
  the tree (:mod:`repro.replica.antientropy`).

Buckets are copy-on-write: a write replaces the touched bucket's dict,
never mutates it in place, so a published
:class:`~repro.replica.group.ReplicaSnapshot` can share bucket
references with the live store and stay immutable for free — the same
discipline as :mod:`repro.snap`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.errors import ConfigurationError
from repro.crypto.hashing import sha256_int
from repro.merkle.tree import MerkleTree

#: Separators for the canonical bucket serialization.  Unit/record
#: separators cannot appear in registry keys or values (they are
#: control characters), so the encoding is injective.
_KV_SEP = "\x1f"
_ENTRY_SEP = "\x1e"


def bucket_payload(entries: dict[str, str]) -> str:
    """Canonical, order-independent serialization of one bucket."""
    return _ENTRY_SEP.join(
        f"{key}{_KV_SEP}{entries[key]}" for key in sorted(entries))


class BucketedMerkleStore:
    """A replica's local state: bucketed entries + Merkle summary."""

    def __init__(self, bucket_count: int = 64) -> None:
        if bucket_count < 1:
            raise ConfigurationError(
                f"bucket_count must be >= 1, got {bucket_count}")
        self.bucket_count = bucket_count
        self._buckets: list[dict[str, str]] = [
            {} for _ in range(bucket_count)]
        self._tree = MerkleTree([""] * bucket_count)
        #: Buckets written since the tree last settled.
        self._dirty: set[int] = set()
        self._size = 0
        #: Cumulative hash computations spent settling dirty buckets
        #: (a write alone spends none).
        self.hash_ops = 0

    # -- key routing -----------------------------------------------------

    def bucket_of(self, key: str) -> int:
        return sha256_int(f"bucket:{key}") % self.bucket_count

    # -- reads -----------------------------------------------------------

    def get(self, key: str) -> str | None:
        return self._buckets[self.bucket_of(key)].get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._buckets[self.bucket_of(key)]

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[tuple[str, str]]:
        for bucket in self._buckets:
            yield from sorted(bucket.items())

    @property
    def root(self) -> str:
        """The state digest: byte-identical roots ⇔ identical state."""
        return self.tree.root

    @property
    def tree(self) -> MerkleTree:
        """The Merkle summary, settled over every write so far (a tree
        held across later writes is stale until this is read again)."""
        if self._dirty:
            self.hash_ops += self._tree.update_leaves(
                {index: bucket_payload(self._buckets[index])
                 for index in self._dirty})
            self._dirty.clear()
        return self._tree

    # -- writes (copy-on-write per bucket) -------------------------------

    def put(self, key: str, value: str) -> int:
        """Set ``key = value``; returns the touched bucket index."""
        index = self.bucket_of(key)
        bucket = self._buckets[index]
        if bucket.get(key) == value:
            return index
        if key not in bucket:
            self._size += 1
        updated = dict(bucket)
        updated[key] = value
        self._buckets[index] = updated
        self._dirty.add(index)
        return index

    def delete(self, key: str) -> int:
        """Remove *key* if present (idempotent); returns its bucket."""
        index = self.bucket_of(key)
        bucket = self._buckets[index]
        if key not in bucket:
            return index
        updated = dict(bucket)
        del updated[key]
        self._buckets[index] = updated
        self._size -= 1
        self._dirty.add(index)
        return index

    def apply(self, ops: Iterable[tuple]) -> None:
        """Apply ``("put", key, value)`` / ``("del", key)`` ops in order."""
        for op in ops:
            if op[0] == "put":
                self.put(op[1], op[2])
            elif op[0] == "del":
                self.delete(op[1])
            else:
                raise ConfigurationError(f"unknown replica op {op[0]!r}")

    def load(self, entries: dict[str, str]) -> None:
        """Bulk-load *entries* (seeding path); the next digest read
        settles them all in one pass."""
        for key, value in entries.items():
            self.put(key, value)

    # -- bucket transfer (anti-entropy repair side) ----------------------

    def bucket_entries(self, index: int) -> dict[str, str]:
        """A private copy of bucket *index*'s entries (safe to ship)."""
        return dict(self._buckets[index])

    def payload(self, index: int) -> str:
        """Canonical serialization of bucket *index* (what crosses the
        wire during repair; its length is the bytes-shipped charge)."""
        return bucket_payload(self._buckets[index])

    def replace_bucket(self, index: int, entries: dict[str, str]) -> None:
        """Install a shipped bucket wholesale (repair/resync path)."""
        old = self._buckets[index]
        self._size += len(entries) - len(old)
        self._buckets[index] = dict(entries)
        self._dirty.add(index)

    def buckets_view(self) -> tuple[dict[str, str], ...]:
        """The live bucket references, for zero-copy snapshots.

        Safe to share: writes replace bucket dicts instead of mutating
        them, so every dict handed out here is frozen in practice.
        """
        return tuple(self._buckets)

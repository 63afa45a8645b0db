"""Merkle anti-entropy: find and repair divergence in O(log n) per
discrepancy instead of a full resync.

Two replicas with equal bucket counts hold Merkle trees of identical
shape (:meth:`~repro.merkle.tree.MerkleTree.children_of`), so the diff
walks both trees top-down in lockstep: equal node hashes prune the
whole subtree, unequal ones descend.  Only the divergent leaf buckets'
payloads cross the wire — bytes shipped is O(divergent subtrees), at
least 10x under a full resync at 1% divergence
(``tests/replica/test_antientropy.py``).

Wire accounting models a real exchange: each compared hash costs
:data:`HASH_WIRE_BYTES` (a raw SHA-256 digest), each descend request
names a node for :data:`NODE_ID_WIRE_BYTES`, and each shipped bucket
costs its canonical payload length, so a repair's totals compare
directly with a full resync's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError, IntegrityError
from repro.replica.store import BucketedMerkleStore

#: A compared hash crosses the wire as a raw 32-byte digest.
HASH_WIRE_BYTES = 32
#: A descend request names one (level, index) node.
NODE_ID_WIRE_BYTES = 8


@dataclass
class RepairReport:
    """What one repair (or resync) cost, in comparisons and bytes."""

    divergent_buckets: tuple[int, ...] = ()
    buckets_shipped: int = 0
    hashes_compared: int = 0
    hash_bytes: int = 0
    request_bytes: int = 0
    entry_bytes: int = 0
    full_resync: bool = False
    _counts: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def bytes_shipped(self) -> int:
        return self.hash_bytes + self.request_bytes + self.entry_bytes

    def snapshot(self) -> dict[str, int | bool]:
        return {
            "divergent_buckets": len(self.divergent_buckets),
            "buckets_shipped": self.buckets_shipped,
            "hashes_compared": self.hashes_compared,
            "hash_bytes": self.hash_bytes,
            "request_bytes": self.request_bytes,
            "entry_bytes": self.entry_bytes,
            "bytes_shipped": self.bytes_shipped,
            "full_resync": self.full_resync,
        }


def diff_divergent_buckets(source, target,
                           report: RepairReport | None = None
                           ) -> list[int]:
    """Bucket indices where *source* and *target* trees disagree.

    Top-down lockstep BFS: compare the roots, then descend only into
    children whose hashes differ.  With *d* divergent buckets over *n*
    the walk compares O(d·log n) hashes, never O(n).
    """
    if source.leaf_count != target.leaf_count:
        raise ConfigurationError(
            f"bucket layouts differ ({source.leaf_count} vs "
            f"{target.leaf_count} leaves); replicas must agree on the "
            f"partitioning before they can diff")
    report = report if report is not None else RepairReport()
    report.hashes_compared += 1
    report.hash_bytes += HASH_WIRE_BYTES
    if source.root == target.root:
        return []
    top = source.level_count - 1
    if top == 0:
        return [0]
    divergent: list[int] = []
    frontier: list[tuple[int, int]] = [(top, 0)]
    while frontier:
        descend: list[tuple[int, int]] = []
        for level, index in frontier:
            for child in source.children_of(level, index):
                report.hashes_compared += 1
                report.hash_bytes += HASH_WIRE_BYTES
                report.request_bytes += NODE_ID_WIRE_BYTES
                if (source.node_hash(level - 1, child)
                        == target.node_hash(level - 1, child)):
                    continue
                if level - 1 == 0:
                    divergent.append(child)
                else:
                    descend.append((level - 1, child))
        frontier = descend
    return sorted(divergent)


def antientropy_repair(source: BucketedMerkleStore,
                       target: BucketedMerkleStore) -> RepairReport:
    """Make *target*'s state byte-identical to *source*'s by shipping
    only the divergent buckets; verified by root comparison after."""
    report = RepairReport()
    divergent = diff_divergent_buckets(source.tree, target.tree, report)
    for index in divergent:
        payload = source.payload(index)
        report.entry_bytes += (len(payload.encode("utf-8"))
                               + NODE_ID_WIRE_BYTES)
        target.replace_bucket(index, source.bucket_entries(index))
    report.divergent_buckets = tuple(divergent)
    report.buckets_shipped = len(divergent)
    if target.root != source.root:
        raise IntegrityError(
            "anti-entropy repair did not converge the Merkle root — "
            "the shipped buckets do not explain the divergence")
    return report


def full_resync(source: BucketedMerkleStore,
                target: BucketedMerkleStore) -> RepairReport:
    """The baseline: ship every bucket regardless of divergence."""
    if source.bucket_count != target.bucket_count:
        raise ConfigurationError(
            f"bucket layouts differ ({source.bucket_count} vs "
            f"{target.bucket_count})")
    report = RepairReport(full_resync=True)
    for index in range(source.bucket_count):
        payload = source.payload(index)
        report.entry_bytes += (len(payload.encode("utf-8"))
                               + NODE_ID_WIRE_BYTES)
        target.replace_bucket(index, source.bucket_entries(index))
    report.buckets_shipped = source.bucket_count
    if target.root != source.root:
        raise IntegrityError("full resync did not converge the root")
    return report

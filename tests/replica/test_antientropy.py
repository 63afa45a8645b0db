"""Merkle anti-entropy: exact divergence localization, cheap repair."""

import pytest

from repro.core.errors import ConfigurationError
from repro.replica.antientropy import (
    HASH_WIRE_BYTES,
    RepairReport,
    antientropy_repair,
    diff_divergent_buckets,
    full_resync,
)
from repro.replica.store import BucketedMerkleStore


def _pair(bucket_count=64, entries=300):
    source = BucketedMerkleStore(bucket_count)
    target = BucketedMerkleStore(bucket_count)
    data = {f"key-{i}": f"val-{i}" for i in range(entries)}
    source.load(data)
    target.load(data)
    return source, target


def test_identical_stores_diff_to_nothing():
    source, target = _pair()
    report = RepairReport()
    assert diff_divergent_buckets(source.tree, target.tree, report) == []
    # One root comparison settles it — no descent at all.
    assert report.hashes_compared == 1
    assert report.bytes_shipped == HASH_WIRE_BYTES


def test_diff_finds_exactly_the_mutated_buckets():
    source, target = _pair()
    touched = {source.put("key-3", "changed"),
               source.put("key-150", "changed"),
               source.delete("key-42")}
    divergent = diff_divergent_buckets(source.tree, target.tree)
    assert set(divergent) == touched


def test_repair_converges_and_ships_only_divergence():
    source, target = _pair()
    source.put("key-7", "changed")
    source.put("key-200", "changed")
    report = antientropy_repair(source, target)
    assert target.root == source.root
    assert dict(target.items()) == dict(source.items())
    assert report.buckets_shipped == len(report.divergent_buckets)
    assert report.buckets_shipped <= 2
    assert not report.full_resync


def test_repair_comparisons_are_logarithmic_per_discrepancy():
    source, target = _pair(bucket_count=256, entries=1000)
    source.put("key-11", "changed")
    report = antientropy_repair(source, target)
    # One divergent leaf over 256 buckets: the walk opens one root-to-
    # leaf path, comparing both children at each of ~8 levels, plus
    # the root — far below the 256 leaf comparisons of a linear scan.
    assert report.hashes_compared <= 2 * 9 + 1
    assert target.root == source.root


def test_full_resync_ships_every_bucket():
    source, target = _pair(bucket_count=32)
    source.put("key-5", "changed")
    report = full_resync(source, target)
    assert target.root == source.root
    assert report.buckets_shipped == 32
    assert report.full_resync


def test_repair_digest_matches_full_resync_digest():
    source, repaired = _pair()
    _, resynced = _pair()
    for key in ("key-1", "key-77", "key-130"):
        source.put(key, "mutated")
    antientropy_repair(source, repaired)
    full_resync(source, resynced)
    assert repaired.root == resynced.root == source.root


def test_repair_at_one_percent_divergence_ships_a_tenth_of_a_resync():
    """The repair's advantage in bytes, counted rather than timed: 2,000
    entries over 1,024 buckets with 10 diverged (28.6x at this size)."""
    data = {f"key-{i:06d}": f"value-{i:06d}-" + "x" * 96
            for i in range(2_000)}
    source, repaired, resynced = (BucketedMerkleStore(1_024)
                                  for _ in range(3))
    for store in (source, repaired, resynced):
        store.load(data)
    touched: set[int] = set()
    index = 0
    while len(touched) < 10:
        key = f"key-{index:06d}"
        if source.bucket_of(key) not in touched:
            touched.add(source.put(key, f"diverged-{index}-" + "y" * 96))
        index += 1
    repair = antientropy_repair(source, repaired)
    resync = full_resync(source, resynced)
    assert sorted(repair.divergent_buckets) == sorted(touched)
    assert resync.bytes_shipped >= 10 * repair.bytes_shipped
    assert repaired.root == resynced.root == source.root
    assert dict(repaired.items()) == dict(source.items())


def test_mismatched_layouts_refused():
    source = BucketedMerkleStore(16)
    target = BucketedMerkleStore(32)
    with pytest.raises(ConfigurationError):
        diff_divergent_buckets(source.tree, target.tree)
    with pytest.raises(ConfigurationError):
        full_resync(source, target)


def test_single_bucket_store_diffs():
    source = BucketedMerkleStore(1)
    target = BucketedMerkleStore(1)
    source.put("a", "1")
    assert diff_divergent_buckets(source.tree, target.tree) == [0]
    antientropy_repair(source, target)
    assert target.root == source.root


def test_odd_bucket_counts_diff_correctly():
    """Promoted-node tree shapes line up between the two trees."""
    for bucket_count in (3, 5, 7, 9, 11, 13):
        source = BucketedMerkleStore(bucket_count)
        target = BucketedMerkleStore(bucket_count)
        data = {f"k{i}": f"v{i}" for i in range(50)}
        source.load(data)
        target.load(data)
        index = source.put("k1", "changed")
        assert diff_divergent_buckets(source.tree, target.tree) == [index]
        antientropy_repair(source, target)
        assert target.root == source.root


def test_repair_between_never_settled_stores_converges():
    source = BucketedMerkleStore(32)
    target = BucketedMerkleStore(32)
    for i in range(200):
        source.put(f"key-{i}", f"val-{i}")
        if i % 3:
            target.put(f"key-{i}", f"val-{i}")
    target.put("stray", "x")
    assert source.hash_ops == target.hash_ops == 0
    report = antientropy_repair(source, target)
    assert target.root == source.root
    assert dict(target.items()) == dict(source.items())
    assert report.buckets_shipped == len(report.divergent_buckets) > 0

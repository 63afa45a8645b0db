"""BucketedMerkleStore: canonical digests + incremental summaries."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.merkle.tree import MerkleTree
from repro.replica.store import BucketedMerkleStore, bucket_payload


def test_roundtrip_put_get_delete():
    store = BucketedMerkleStore(16)
    store.put("alpha", "1")
    store.put("beta", "2")
    assert store.get("alpha") == "1"
    assert store.get("beta") == "2"
    assert "alpha" in store and len(store) == 2
    store.delete("alpha")
    assert store.get("alpha") is None
    assert len(store) == 1


def test_digest_is_content_addressed_not_history_addressed():
    """Same final state ⇒ same root, whatever the write order was."""
    a = BucketedMerkleStore(16)
    b = BucketedMerkleStore(16)
    for i in range(50):
        a.put(f"k{i}", f"v{i}")
    for i in reversed(range(50)):
        b.put(f"k{i}", f"v{i}")
    a.put("k7", "rewritten")
    a.put("k7", "v7")          # overwrite back
    b.put("extra", "x")
    b.delete("extra")          # add then remove
    assert a.root == b.root


def test_incremental_root_equals_full_rebuild():
    store = BucketedMerkleStore(16)
    for i in range(40):
        store.put(f"k{i}", f"v{i}")
    rebuilt = BucketedMerkleStore(16)
    rebuilt.load(dict(store.items()))
    assert store.root == rebuilt.root


def test_load_equals_puts():
    entries = {f"key-{i}": f"val-{i}" for i in range(30)}
    loaded = BucketedMerkleStore(8)
    loaded.load(entries)
    written = BucketedMerkleStore(8)
    for key, value in entries.items():
        written.put(key, value)
    assert loaded.root == written.root
    assert dict(loaded.items()) == dict(written.items())


def test_hash_ops_stay_logarithmic():
    """Settling one put rehashes a root path, not the whole tree."""
    store = BucketedMerkleStore(256)
    store.load({f"k{i}": "v" for i in range(1000)})
    store.root                      # settle the load
    before = store.hash_ops
    store.put("k1", "changed")
    store.root
    spent = store.hash_ops - before
    # Root path of a 256-leaf tree: 8 internal levels + 1 leaf hash.
    assert 0 < spent <= 10


def test_put_spends_no_hashes():
    store = BucketedMerkleStore(64)
    store.root
    for i in range(200):
        store.put(f"k{i}", f"v{i}")
        store.delete(f"k{i // 2}")
    store.replace_bucket(3, {"x": "y"})
    store.load({"a": "1", "b": "2"})
    assert store.hash_ops == 0


def test_digest_reads_settle_once():
    store = BucketedMerkleStore(16)
    store.put("a", "1")
    store.root
    settled = store.hash_ops
    store.root
    store.tree.node_hash(0, 0)
    assert store.hash_ops == settled


@pytest.mark.parametrize("bucket_count", [1, 7, 64, 100])
def test_one_settle_costs_at_most_min_of_paths_and_rebuild(bucket_count):
    """k writes to distinct buckets settle in <= min(k·(depth+1), 2n-1)
    hashes: each ancestor is rehashed once, however many writes."""
    depth = MerkleTree([""] * bucket_count).level_count - 1
    for k in range(1, bucket_count + 1):
        store = BucketedMerkleStore(bucket_count)
        store.root
        touched: set[int] = set()
        key = 0
        while len(touched) < k:
            index = store.bucket_of(f"k{key}")
            if index not in touched:
                touched.add(index)
                store.put(f"k{key}", "v")
            key += 1
        store.root
        assert store.hash_ops <= min(k * (depth + 1), 2 * bucket_count - 1)


def test_noop_put_and_delete_leave_root_unchanged():
    store = BucketedMerkleStore(8)
    store.put("a", "1")
    root = store.root
    store.put("a", "1")          # same value
    store.delete("missing")      # absent key
    assert store.root == root


def test_bucket_transfer_roundtrip():
    source = BucketedMerkleStore(8)
    source.load({f"k{i}": f"v{i}" for i in range(20)})
    target = BucketedMerkleStore(8)
    for index in range(8):
        target.replace_bucket(index, source.bucket_entries(index))
        assert target.payload(index) == source.payload(index)
    assert target.root == source.root


def test_payload_is_injective_ordering():
    assert bucket_payload({"b": "2", "a": "1"}) == \
        bucket_payload({"a": "1", "b": "2"})
    assert bucket_payload({"a": "1"}) != bucket_payload({"a": "2"})


def test_bucket_count_validation():
    with pytest.raises(ConfigurationError):
        BucketedMerkleStore(0)


def test_cow_buckets_keep_published_views_immutable():
    store = BucketedMerkleStore(4)
    store.put("a", "1")
    view = store.buckets_view()
    frozen = {k: dict(b) for k, b in enumerate(view)}
    store.put("a", "2")
    store.put("b", "3")
    assert {k: dict(b) for k, b in enumerate(view)} == frozen


class TestAlignedNodeAccess:
    """MerkleTree.children_of spans every shape the store produces."""

    @pytest.mark.parametrize("leaf_count", list(range(1, 18)))
    def test_children_partition_each_level(self, leaf_count):
        tree = MerkleTree([f"leaf{i}" for i in range(leaf_count)])
        for level in range(1, tree.level_count):
            seen = []
            for index in range(tree.level_width(level)):
                seen.extend(tree.children_of(level, index))
            assert sorted(seen) == list(range(tree.level_width(level - 1)))

    @pytest.mark.parametrize("leaf_count", [1, 2, 5, 9, 16])
    def test_node_hash_matches_recomputation(self, leaf_count):
        from repro.merkle.tree import hash_children
        tree = MerkleTree([f"leaf{i}" for i in range(leaf_count)])
        for level in range(1, tree.level_count):
            for index in range(tree.level_width(level)):
                children = tree.children_of(level, index)
                if len(children) == 1:
                    expected = tree.node_hash(level - 1, children[0])
                else:
                    expected = hash_children(
                        tree.node_hash(level - 1, children[0]),
                        tree.node_hash(level - 1, children[1]))
                assert tree.node_hash(level, index) == expected

    def test_bounds_checked(self):
        tree = MerkleTree(["a", "b", "c"])
        with pytest.raises(ConfigurationError):
            tree.children_of(0, 0)
        with pytest.raises(ConfigurationError):
            tree.children_of(tree.level_count, 0)
        with pytest.raises(ConfigurationError):
            tree.node_hash(0, 99)


def _levels(tree: MerkleTree) -> list[list[str]]:
    return [[tree.node_hash(level, index)
             for index in range(tree.level_width(level))]
            for level in range(tree.level_count)]


class TestLazySettleEquivalence:
    """Whatever writes and reads interleave, a settled tree is the tree
    a rebuild over the current buckets would give, at every level."""

    KEYS = [f"k{i}" for i in range(24)]

    @given(st.integers(1, 17), st.data())
    @settings(max_examples=150, deadline=None)
    def test_settled_tree_equals_rebuild(self, bucket_count, data):
        store = BucketedMerkleStore(bucket_count)
        model: dict[str, str] = {}
        for _ in range(data.draw(st.integers(1, 30))):
            step = data.draw(st.sampled_from(
                ["put", "delete", "replace_bucket", "load",
                 "root", "tree", "node_hash"]))
            if step == "put":
                key = data.draw(st.sampled_from(self.KEYS))
                value = data.draw(st.sampled_from(["a", "b", ""]))
                store.put(key, value)
                model[key] = value
            elif step == "delete":
                key = data.draw(st.sampled_from(self.KEYS))
                store.delete(key)
                model.pop(key, None)
            elif step == "replace_bucket":
                index = data.draw(st.integers(0, bucket_count - 1))
                entries = {key: data.draw(st.sampled_from(["c", "d"]))
                           for key in self.KEYS
                           if store.bucket_of(key) == index
                           and data.draw(st.booleans())}
                store.replace_bucket(index, entries)
                model = {key: value for key, value in model.items()
                         if store.bucket_of(key) != index}
                model.update(entries)
            elif step == "load":
                entries = {key: "loaded" for key in data.draw(
                    st.lists(st.sampled_from(self.KEYS), max_size=6))}
                store.load(entries)
                model.update(entries)
            elif step == "root":
                store.root
            elif step == "tree":
                store.tree
            else:
                tree = store.tree
                level = data.draw(st.integers(0, tree.level_count - 1))
                tree.node_hash(level, data.draw(
                    st.integers(0, tree.level_width(level) - 1)))
            # Settle a copy, so the store itself keeps what is dirty
            # and the next steps exercise batched settles.
            settled = copy.deepcopy(store)
            rebuilt = MerkleTree([bucket_payload(bucket)
                                  for bucket in store.buckets_view()])
            assert _levels(settled.tree) == _levels(rebuilt)
            assert settled.root == rebuilt.root
            assert dict(store.items()) == model
            assert len(store) == len(model)
        assert _levels(store.tree) == _levels(MerkleTree(
            [bucket_payload(bucket) for bucket in store.buckets_view()]))

"""Incremental Merkle recomputation must equal a full rebuild.

``MerkleTree.update_leaves`` and its one-leaf form ``update_leaf`` (flat
leaf lists; promoted odd nodes are the tricky case) must agree
hash-for-hash with a from-scratch rebuild, within the O(log n)
operation counts that make the optimisation worth having.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.merkle.tree import MerkleTree


class TestMerkleTreeUpdateLeaf:
    @given(st.integers(1, 70), st.data())
    @settings(max_examples=120, deadline=None)
    def test_update_equals_rebuild(self, leaf_count, data):
        leaves = [f"leaf-{i}" for i in range(leaf_count)]
        tree = MerkleTree(leaves)
        for _ in range(data.draw(st.integers(1, 5))):
            index = data.draw(st.integers(0, leaf_count - 1))
            payload = data.draw(st.sampled_from(
                ["x", "updated", "leaf-0", ""]))
            leaves[index] = payload
            tree.update_leaf(index, payload)
            rebuilt = MerkleTree(leaves)
            assert tree.root == rebuilt.root
            assert tree._levels == rebuilt._levels

    def test_proofs_remain_valid_after_update(self):
        leaves = [f"v{i}" for i in range(13)]
        tree = MerkleTree(leaves)
        tree.update_leaf(7, "patched")
        leaves[7] = "patched"
        for index, payload in enumerate(leaves):
            assert tree.verify_leaf(index, payload)

    def test_operation_count_is_logarithmic(self):
        leaf_count = 4096
        tree = MerkleTree([f"l{i}" for i in range(leaf_count)])
        operations = tree.update_leaf(1234, "new")
        # Full rebuild hashes 2n-1 nodes; the dirty path is log2(n)+1.
        assert operations <= int(math.log2(leaf_count)) + 2
        assert operations < 2 * leaf_count - 1

    def test_rejects_out_of_range_index(self):
        tree = MerkleTree(["a", "b"])
        with pytest.raises(ConfigurationError):
            tree.update_leaf(2, "c")


class TestMerkleTreeUpdateLeaves:
    @given(st.integers(1, 70), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_rebuild(self, leaf_count, data):
        leaves = [f"leaf-{i}" for i in range(leaf_count)]
        tree = MerkleTree(leaves)
        for _ in range(data.draw(st.integers(1, 4))):
            changes = data.draw(st.dictionaries(
                st.integers(0, leaf_count - 1),
                st.sampled_from(["x", "updated", "leaf-0", ""]),
                max_size=leaf_count))
            for index, payload in changes.items():
                leaves[index] = payload
            operations = tree.update_leaves(changes)
            rebuilt = MerkleTree(leaves)
            assert tree._levels == rebuilt._levels
            # Each ancestor at most once: never above a full rebuild.
            assert operations <= 2 * leaf_count - 1

    @pytest.mark.parametrize("leaf_count", [1, 2, 3, 5, 7, 33, 64, 65])
    def test_all_leaves_cost_exactly_a_rebuild(self, leaf_count):
        tree = MerkleTree(["old"] * leaf_count)
        operations = tree.update_leaves(
            {index: f"new-{index}" for index in range(leaf_count)})
        # n leaf hashes + n-1 pair hashes; promoted nodes cost nothing.
        assert operations == 2 * leaf_count - 1
        assert tree.root == MerkleTree(
            [f"new-{index}" for index in range(leaf_count)]).root

    def test_single_leaf_batch_is_update_leaf(self):
        by_batch = MerkleTree([f"l{i}" for i in range(13)])
        by_leaf = MerkleTree([f"l{i}" for i in range(13)])
        assert (by_batch.update_leaves({12: "promoted"})
                == by_leaf.update_leaf(12, "promoted"))
        assert by_batch._levels == by_leaf._levels

    def test_empty_batch_hashes_nothing(self):
        tree = MerkleTree(["a", "b", "c"])
        root = tree.root
        assert tree.update_leaves({}) == 0
        assert tree.root == root

    def test_out_of_range_batch_changes_nothing(self):
        tree = MerkleTree(["a", "b", "c"])
        levels = [list(level) for level in tree._levels]
        with pytest.raises(ConfigurationError):
            tree.update_leaves({0: "changed", 3: "out of range"})
        assert tree._levels == levels

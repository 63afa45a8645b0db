"""Incremental Merkle recomputation must equal a full rebuild.

Two constructions are covered: ``MerkleTree.update_leaves`` and its
one-leaf form ``update_leaf`` (flat leaf lists; promoted odd nodes are
the tricky case) and
``IncrementalXmlHasher`` (XML trees under random mutation sequences).
Each asserts hash-for-hash equality with a from-scratch rebuild, plus
the O(log n)/O(depth) operation counts that make the optimisation worth
having.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.merkle.tree import MerkleTree
from repro.merkle.xml_merkle import (
    IncrementalXmlHasher,
    document_hash,
    merkle_hash,
)
from repro.xmldb.model import Document, Element, element


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


def build_document():
    return Document(element(
        "hospital", None, None,
        *[element("record", None, {"id": f"r{i}"},
                  element("name", f"name-{i}"),
                  element("diagnosis", "flu" if i % 2 else "ok"))
          for i in range(8)]), name="doc")


class TestIncrementalXmlHasher:
    def test_initial_hash_matches_full(self):
        doc = build_document()
        hasher = IncrementalXmlHasher(doc)
        assert hasher.root_hash() == document_hash(doc)

    def test_mutations_track_full_rebuild(self):
        doc = build_document()
        hasher = IncrementalXmlHasher(doc)
        hasher.root_hash()
        record = doc.root.element_children[3]
        hasher.set_text(record.element_children[0], "renamed")
        assert hasher.verify_against_rebuild()
        hasher.set_attribute(record, "flag", "1")
        assert hasher.verify_against_rebuild()
        hasher.remove_attribute(record, "flag")
        assert hasher.verify_against_rebuild()
        hasher.insert_child(record, element("note", "watch"))
        assert hasher.verify_against_rebuild()
        hasher.remove_child(doc.root, doc.root.element_children[5])
        assert hasher.verify_against_rebuild()

    def test_update_rehashes_only_dirty_path(self):
        # A deep chain: an edit at the bottom must rehash O(depth)
        # nodes, not the whole sibling forest.
        depth = 30
        leaf = Element("leaf")
        node = leaf
        for i in range(depth):
            wrapper = Element(f"lvl{i}")
            wrapper.append(node)
            for j in range(3):
                wrapper.append(Element("pad", {"i": f"{i}-{j}"}))
            node = wrapper
        doc = Document(node)
        hasher = IncrementalXmlHasher(doc)
        hasher.root_hash()
        total_nodes = doc.size()
        before = hasher.hash_operations
        hasher.set_text(leaf, "dirty")
        hasher.root_hash()
        dirty_cost = hasher.hash_operations - before
        # Dirty path: depth+1 merkle hashes + 1 content hash, far below
        # the ~2n of a full recomputation.
        assert dirty_cost <= 2 * (depth + 2)
        assert dirty_cost < total_nodes

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_random_edit_sequences(self, data):
        doc = build_document()
        hasher = IncrementalXmlHasher(doc)
        hasher.root_hash()
        for _ in range(data.draw(st.integers(1, 8))):
            nodes = list(doc.iter())
            kind = data.draw(st.sampled_from(
                ["text", "attr", "insert", "remove"]))
            node = nodes[data.draw(st.integers(0, len(nodes) - 1))]
            if kind == "text":
                hasher.set_text(node, data.draw(
                    st.sampled_from(["a", "bb", ""])))
            elif kind == "attr":
                hasher.set_attribute(node, "m", data.draw(
                    st.sampled_from(["0", "1"])))
            elif kind == "insert":
                hasher.insert_child(node, element("extra", "e"))
            else:
                removable = node.element_children
                if not removable or node is doc.root and \
                        len(doc.root.element_children) == 0:
                    continue
                hasher.remove_child(node, removable[0])
            assert hasher.root_hash() == merkle_hash(doc.root)

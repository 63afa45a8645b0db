"""Differential test: every corrupt-fault mutation is caught by Merkle
verification, across 200 seeded runs.

Each seed drives the deterministic corruption primitive
(:meth:`FaultInjector.corrupt_bytes` / ``corrupt_text``) against data
protected by the repo's Merkle surfaces — binary leaf trees and their
incremental ``update_leaf``, XML merkle hashes, and partial views with
filler hashes — and asserts the verifier side rejects the mutation
every single time.  One accepted
mutation is one silent integrity failure, so the pass criterion is
universal, not statistical.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.merkle.tree import MerkleTree, verify_subset
from repro.merkle.xml_merkle import (
    FillerHashes,
    build_partial_view,
    document_hash,
    merkle_hash,
    verify_view,
)
from repro.xmldb.parser import parse

SEEDS = range(200)

LEAVES = [f"record-{i}:payload".encode("utf-8") for i in range(8)]

DOC_TEXT = ('<hospital><record id="r1"><name>Alice</name>'
            '<diagnosis>flu</diagnosis><ssn>123</ssn></record>'
            '<record id="r2"><name>Bob</name><diagnosis>cold</diagnosis>'
            '<ssn>456</ssn></record></hospital>')


def injector(seed):
    return FaultInjector(FaultPlan(), seed=seed)


class TestLeafTreeRejectsCorruption:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_proof_rejects_corrupted_leaf(self, seed):
        tree = MerkleTree(LEAVES)
        index = seed % len(LEAVES)
        proof = tree.proof(index)
        corrupted = injector(seed).corrupt_bytes(LEAVES[index],
                                                 f"leaf:{index}")
        assert corrupted != LEAVES[index]
        assert proof.verify(LEAVES[index], tree.root)
        assert not proof.verify(corrupted, tree.root)

    @pytest.mark.parametrize("seed", range(50))
    def test_subset_verification_rejects_one_bad_leaf(self, seed):
        tree = MerkleTree(LEAVES)
        index = seed % len(LEAVES)
        proofs = [tree.proof(i) for i in range(len(LEAVES))]
        good = [(i, LEAVES[i]) for i in range(len(LEAVES))]
        assert verify_subset(tree.root, good, proofs)
        bad = list(good)
        bad[index] = (index,
                      injector(seed).corrupt_bytes(LEAVES[index], "s"))
        assert not verify_subset(tree.root, bad, proofs)


class TestLeafUpdateRejectsCorruption:
    @pytest.mark.parametrize("seed", range(50))
    def test_tracked_mutation_changes_root_and_rebuild_agrees(self, seed):
        leaves = list(LEAVES)
        tree = MerkleTree(leaves)
        baseline = tree.root
        index = seed % len(leaves)
        leaves[index] = injector(seed).corrupt_bytes(leaves[index], "inc")
        tree.update_leaf(index, leaves[index])
        assert tree.root != baseline
        assert tree.root == MerkleTree(leaves).root

    @pytest.mark.parametrize("seed", range(50))
    def test_untracked_mutation_is_caught_by_rebuild(self, seed):
        """A corruption that bypasses ``update_leaf`` (rot in the stored
        leaves) makes the tree's root a lie: a rebuild over the stored
        leaves exposes it, and so does the leaf's proof."""
        leaves = list(LEAVES)
        tree = MerkleTree(leaves)
        index = seed % len(leaves)
        leaves[index] = injector(seed).corrupt_bytes(leaves[index], "raw")
        assert MerkleTree(leaves).root != tree.root
        assert not tree.verify_leaf(index, leaves[index])


class TestXmlMerkleRejectsCorruption:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_document_hash_detects_text_rot(self, seed):
        document = parse(DOC_TEXT, name="records")
        baseline = document_hash(document)
        nodes = [n for n in document.iter() if n.text]
        victim = nodes[seed % len(nodes)]
        victim.set_text(injector(seed).corrupt_text(victim.text, "xml"))
        assert document_hash(document) != baseline

    @pytest.mark.parametrize("seed", range(50))
    def test_subtree_hash_localizes_the_damage(self, seed):
        document = parse(DOC_TEXT, name="records")
        records = document.root.element_children
        baselines = [merkle_hash(r) for r in records]
        victim_idx = seed % len(records)
        victim = [n for n in records[victim_idx].iter() if n.text][0]
        victim.set_text(injector(seed).corrupt_text(victim.text, "sub"))
        after = [merkle_hash(r) for r in records]
        assert after[victim_idx] != baselines[victim_idx]
        for i, (a, b) in enumerate(zip(after, baselines)):
            if i != victim_idx:
                assert a == b  # untouched subtrees keep their hashes


def partial_view():
    document = parse(DOC_TEXT, name="records")
    view, fillers = build_partial_view(document.root,
                                       lambda node: node.tag == "name")
    root_hash = document_hash(document)
    assert verify_view(view, fillers, root_hash)
    return view, fillers, root_hash


class TestPartialViewRejectsCorruption:
    @pytest.mark.parametrize("seed", range(50))
    def test_view_rejects_rot_in_visible_text(self, seed):
        view, fillers, root_hash = partial_view()
        nodes = [n for n in view.iter() if n.text]
        victim = nodes[seed % len(nodes)]
        victim.set_text(injector(seed).corrupt_text(victim.text, "view"))
        assert not verify_view(view, fillers, root_hash)

    @pytest.mark.parametrize("seed", range(50))
    def test_view_rejects_a_corrupted_filler_hash(self, seed):
        """Both kinds of filler (pruned-subtree Merkle hashes and
        stripped-content hashes) are bound by the root hash."""
        view, fillers, root_hash = partial_view()
        subtrees, contents = dict(fillers.subtrees), dict(fillers.contents)
        entries = ([(subtrees, path) for path in sorted(subtrees)]
                   + [(contents, path) for path in sorted(contents)])
        table, path = entries[seed % len(entries)]
        corrupted = injector(seed).corrupt_text(table[path], "filler")
        assert corrupted != table[path]
        table[path] = corrupted
        assert not verify_view(view, FillerHashes(subtrees, contents),
                               root_hash)

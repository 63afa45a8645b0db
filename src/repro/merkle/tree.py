"""Generic Merkle hash trees over ordered leaf sequences.

The authentication mechanism of [4] rests on Merkle trees: the owner signs
a single *summary signature* (the root hash); a third party can later
prove that any subset of leaves belongs to the signed whole by supplying
the missing sibling hashes.  This module provides the binary-tree variant
used for UDDI entries and flat leaf lists; :mod:`repro.merkle.xml_merkle`
provides the structure-preserving variant for XML documents.

Leaves are hashed with a domain separator distinct from internal nodes,
preventing the classical second-preimage trick where an internal node is
presented as a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.errors import ConfigurationError, IntegrityError
from repro.crypto.hashing import combine, sha256_hex

_LEAF_PREFIX = "leaf:"
_NODE_PREFIX = "node:"


def hash_leaf(data: bytes | str) -> str:
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return sha256_hex(_LEAF_PREFIX + data)


def hash_children(left: str, right: str) -> str:
    return combine(_NODE_PREFIX, left, right)


@dataclass(frozen=True)
class ProofStep:
    """One sibling hash on the leaf-to-root path."""

    sibling: str
    sibling_on_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf at a given index."""

    leaf_index: int
    steps: tuple[ProofStep, ...]

    def compute_root(self, leaf_data: bytes | str) -> str:
        digest = hash_leaf(leaf_data)
        for step in self.steps:
            if step.sibling_on_left:
                digest = hash_children(step.sibling, digest)
            else:
                digest = hash_children(digest, step.sibling)
        return digest

    def verify(self, leaf_data: bytes | str, root: str) -> bool:
        return self.compute_root(leaf_data) == root

    def __len__(self) -> int:
        return len(self.steps)


class MerkleTree:
    """Binary Merkle tree over an ordered sequence of leaf payloads.

    With an odd number of nodes at a level the last node is promoted
    (Bitcoin-style duplication is avoided because it admits ambiguity).
    """

    def __init__(self, leaves: Sequence[bytes | str]) -> None:
        if not leaves:
            raise ConfigurationError("a Merkle tree needs at least one leaf")
        self._levels: list[list[str]] = [[hash_leaf(l) for l in leaves]]
        while len(self._levels[-1]) > 1:
            current = self._levels[-1]
            next_level: list[str] = []
            for i in range(0, len(current) - 1, 2):
                next_level.append(hash_children(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                next_level.append(current[-1])
            self._levels.append(next_level)

    @property
    def root(self) -> str:
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self._levels[0])

    def leaf_hash(self, index: int) -> str:
        return self._levels[0][index]

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at *index*."""
        if not 0 <= index < self.leaf_count:
            raise ConfigurationError(
                f"leaf index {index} out of range 0..{self.leaf_count - 1}")
        steps: list[ProofStep] = []
        position = index
        for level in self._levels[:-1]:
            size = len(level)
            if position == size - 1 and size % 2 == 1:
                # Promoted node: carried to the next level unchanged, where
                # it sits after the size//2 pair hashes.
                position = size // 2
                continue
            if position % 2 == 0:
                steps.append(ProofStep(level[position + 1],
                                       sibling_on_left=False))
            else:
                steps.append(ProofStep(level[position - 1],
                                       sibling_on_left=True))
            position //= 2
        return MerkleProof(index, tuple(steps))

    def update_leaf(self, index: int, data: bytes | str) -> int:
        """Replace the leaf at *index*; see :meth:`update_leaves`."""
        return self.update_leaves({index: data})

    def update_leaves(self, changes: Mapping[int, bytes | str]) -> int:
        """Replace the leaves ``changes`` names, rehashing each of their
        ancestors once, level by level.

        Mirrors the pairing rules of :meth:`proof` — promoted odd nodes
        are copied upward unchanged — so the resulting levels are
        identical to rebuilding the tree from scratch (asserted by the
        equivalence tests).  Returns the number of hash computations
        performed: one leaf's root path is O(log n), and any batch is
        at most the 2n-1 of a full rebuild — the shape benchmark A5
        measures.
        """
        leaves = self._levels[0]
        for index in changes:
            if not 0 <= index < len(leaves):
                raise ConfigurationError(
                    f"leaf index {index} out of range "
                    f"0..{len(leaves) - 1}")
        for index, data in changes.items():
            leaves[index] = hash_leaf(data)
        operations = len(changes)
        positions = sorted(changes)
        for level, above in zip(self._levels, self._levels[1:]):
            last = len(level) - 1
            parents: list[int] = []
            for position in positions:
                parent = position // 2
                if parents and parents[-1] == parent:
                    continue  # its sibling already rehashed this parent
                parents.append(parent)
                left = 2 * parent
                if left < last:
                    above[parent] = hash_children(level[left],
                                                  level[left + 1])
                    operations += 1
                else:
                    # Promoted node: carried to the next level unchanged.
                    above[parent] = level[left]
            positions = parents
        return operations

    def verify_leaf(self, index: int, data: bytes | str) -> bool:
        return self.proof(index).verify(data, self.root)

    # -- aligned node access (anti-entropy diffing) ----------------------
    #
    # Two trees built over the same number of leaves have *identical*
    # shapes (the promotion rule is a function of level width alone), so
    # a replica can walk both trees top-down in lockstep and descend
    # only into subtrees whose node hashes differ — the O(log n)-per-
    # discrepancy divergence search of repro.replica.antientropy.

    @property
    def level_count(self) -> int:
        """Number of levels, leaves (level 0) through root."""
        return len(self._levels)

    def level_width(self, level: int) -> int:
        return len(self._levels[level])

    def node_hash(self, level: int, index: int) -> str:
        """Hash of node *index* at *level* (0 = leaves)."""
        if not 0 <= level < len(self._levels):
            raise ConfigurationError(
                f"level {level} out of range 0..{len(self._levels) - 1}")
        nodes = self._levels[level]
        if not 0 <= index < len(nodes):
            raise ConfigurationError(
                f"node index {index} out of range 0..{len(nodes) - 1} "
                f"at level {level}")
        return nodes[index]

    def children_of(self, level: int, index: int) -> tuple[int, ...]:
        """Indices at ``level - 1`` feeding node ``(level, index)``.

        A promoted odd node has exactly one child (itself, one level
        down); every other node has the usual pair.  Because the shape
        depends only on the leaf count, these indices line up between
        any two trees with equal ``leaf_count`` — the property the
        lockstep diff relies on.
        """
        if not 1 <= level < len(self._levels):
            raise ConfigurationError(
                f"level {level} has no children "
                f"(valid: 1..{len(self._levels) - 1})")
        if not 0 <= index < len(self._levels[level]):
            raise ConfigurationError(
                f"node index {index} out of range at level {level}")
        below = len(self._levels[level - 1])
        if below % 2 == 1 and index == below // 2:
            return (below - 1,)
        return (2 * index, 2 * index + 1)


def verify_subset(root: str, leaves: Iterable[tuple[int, bytes | str]],
                  proofs: Iterable[MerkleProof]) -> bool:
    """Verify several (index, data) leaves against one signed root."""
    for (index, data), proof in zip(leaves, proofs):
        if proof.leaf_index != index:
            raise IntegrityError(
                f"proof is for leaf {proof.leaf_index}, data is for {index}")
        if not proof.verify(data, root):
            return False
    return True

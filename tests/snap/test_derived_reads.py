"""A read after a write costs the write: derived fragments.

When a publication supersedes a document root that a reader interned,
the first read of the new root derives its fragment from that version
(:meth:`InternPool.derive`): unchanged children are reused by
reference, a changed small child is spliced.  These tests pin what it
costs (probes and leaf serializations per edit), that it interns
exactly what a cold walk interns, that every shape it cannot vouch for
falls back to the walk, and that the base map stays one entry per
document a reader has seen.
"""

import random

import pytest

from repro.core.cache import MISS
from repro.datagen import hospital_corpus
from repro.snap import intern
from repro.snap.frozen import FrozenElement, parse_frozen
from repro.snap.intern import DEFAULT_CHUNK_SIZE, InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.serializer import serialize, serialize_element

FIELDS = ("name", "ssn", "department", "diagnosis", "treatment")
RECORDS = 40
EDITS = 8


def e2e_store(pool=None) -> SnapshotXmlDatabase:
    """The e2e benchmark's document: 40 hospital records (~14k chars,
    so a rope over 40 record strings), read once."""
    db = SnapshotXmlDatabase(pool=pool)
    db.create_collection("c")
    db.insert("c", "d", serialize(hospital_corpus(RECORDS, seed=3,
                                                  name="d")))
    db.current().serialize("c", "d")
    return db


def edit_block(db, rng, serial: int = 0) -> None:
    """One 8-edit ``writer()`` transaction, the e2e's write shape."""
    with db.writer():
        for k in range(EDITS):
            db.set_text("c", "d", f"/hospital/record[{rng.randrange(1, 41)}]"
                        f"/{rng.choice(FIELDS)}", f"edit-{serial + k:08d}")


def probes(pool) -> int:
    stats = pool.stats()["fragments"]
    return stats["hits"] + stats["misses"]


def count_leaves(monkeypatch) -> list:
    """Record every leaf serialization from now on (a ``_leaf`` call
    that returns bytes; on a non-leaf it only finds an element child)."""
    calls = []
    leaf = intern._leaf

    def counting(node):
        value = leaf(node)
        if value is not None:
            calls.append(node)
        return value

    monkeypatch.setattr(intern, "_leaf", counting)
    return calls


def nodes(root):
    return list(root.iter())


def cold_entries(root) -> dict:
    pool = InternPool()
    pool.serialize(root)
    return dict(pool._fragments._entries)


def flat(value) -> str:
    return value if isinstance(value, str) else "".join(map(flat, value))


def read(db) -> str:
    return db.current().serialize("c", "d")


def expected(db) -> str:
    return serialize_element(db.current().document("c", "d").root)


class TestCost:
    @pytest.mark.parametrize("seed", range(5))
    def test_first_read_after_an_8_edit_block_costs_the_edits(
            self, seed, monkeypatch):
        """A walk made ~58 probes and ~70 leaf serializations here."""
        rng = random.Random(seed)
        db = e2e_store()
        edit_block(db, rng)
        leaves = count_leaves(monkeypatch)
        before = probes(db.pool)
        assert read(db) == expected(db)
        assert probes(db.pool) - before <= 4
        assert len(leaves) <= 3 * EDITS

    def test_epochs_without_a_read_derive_from_the_last_one_read(
            self, monkeypatch):
        rng = random.Random(1)
        db = e2e_store()
        for block in range(4):
            edit_block(db, rng, serial=block * EDITS)
        assert len(db.pool._bases) == 1             # the chain is one entry
        leaves = count_leaves(monkeypatch)
        before = probes(db.pool)
        assert read(db) == expected(db)
        assert probes(db.pool) - before == 2
        assert len(leaves) <= 3 * 4 * EDITS

    def test_a_write_serializes_nothing(self, monkeypatch):
        db = e2e_store()
        leaves = count_leaves(monkeypatch)
        before = probes(db.pool)
        edit_block(db, random.Random(2))
        assert leaves == [] and probes(db.pool) == before


class TestSameEntriesAsAColdWalk:
    @pytest.mark.parametrize("seed", range(5))
    def test_e2e_block(self, seed):
        db = e2e_store()
        edit_block(db, random.Random(seed))
        read(db)
        self.assert_cold_walk_entries(db)

    def test_attribute_edits_on_rope_and_string_nodes(self):
        db = e2e_store()
        with db.writer():
            db.set_attribute("c", "d", "/hospital", "name", "renamed")
            db.set_attribute("c", "d", "/hospital/record[2]", "id", "x&y")
            db.set_attribute("c", "d", "/hospital/record[3]/billing",
                             "k", "v")
        assert read(db) == expected(db)
        assert db.pool._fragments.get(
            db.current().document("c", "d").root)[0] == (
            '<hospital name="renamed">')
        self.assert_cold_walk_entries(db)

    def test_a_small_document_is_one_spliced_string(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d", "<doc><a><b>x</b><c>y</c></a><d>z</d></doc>")
        read(db)
        with db.writer():
            db.set_text("c", "d", "/doc/a/c", "new")
            db.set_text("c", "d", "/doc/d", "other")
        before = probes(db.pool)
        assert read(db) == "<doc><a><b>x</b><c>new</c></a><d>other</d></doc>"
        assert probes(db.pool) - before == 2
        self.assert_cold_walk_entries(db)

    @staticmethod
    def assert_cold_walk_entries(db):
        """The pool's entries for the new tree's nodes are a cold
        walk's: same keys, same str-or-rope shape, same bytes."""
        root = db.current().document("c", "d").root
        cold = cold_entries(root)
        held = {node: db.pool._fragments._entries[node]
                for node in nodes(root) if node in db.pool._fragments}
        assert set(held) == set(cold)
        for node, value in cold.items():
            assert type(held[node]) is type(value)
            assert flat(held[node]) == flat(value)


class TestFallbacks:
    """Every shape derivation cannot vouch for is a walk instead."""

    def derive(self, base_xml: str, change) -> tuple:
        """Intern *base_xml*'s root, build the new root with *change*,
        record the pair; return (derived, new root)."""
        pool = InternPool()
        base = parse_frozen(base_xml).root
        pool.serialize(base)
        new = change(base)
        pool.supersede([(base, new)])
        derived = pool.derive(new)
        assert pool.serialize(new) == serialize_element(new)
        return derived, new

    @staticmethod
    def with_child(node, slot, child):
        children = list(node.children)
        children[slot] = child
        return FrozenElement(node.tag, node.attributes, tuple(children))

    BIG = "<r>" + "".join(f"<a><b>{i}</b><c>{i}</c></a>"
                          for i in range(400)) + "</r>"

    def test_a_text_edit_derives(self):
        derived, new = self.derive(self.BIG, lambda root: self.with_child(
            root, 5, self.with_child(root.children[5], 0,
                                     parse_frozen("<b>five</b>").root)))
        assert flat(derived) == serialize_element(new)

    def test_tag_change(self):
        derived, _ = self.derive(self.BIG, lambda root: self.with_child(
            root, 5, parse_frozen("<z><b>5</b><c>5</c></z>").root))
        assert derived is MISS

    def test_child_count_change(self):
        derived, _ = self.derive(self.BIG, lambda root: self.with_child(
            root, 5, parse_frozen("<a><b>5</b></a>").root))
        assert derived is MISS
        derived, _ = self.derive(self.BIG, lambda root: FrozenElement(
            root.tag, root.attributes, root.children[1:]))
        assert derived is MISS

    def test_old_bytes_that_occur_twice(self):
        xml = "<r>" + "".join(f"<a><b>x</b><b>x</b><c>{i}</c></a>"
                              for i in range(400)) + "</r>"
        derived, _ = self.derive(xml, lambda root: self.with_child(
            root, 5, self.with_child(root.children[5], 0,
                                     parse_frozen("<b>y</b>").root)))
        assert derived is MISS

    def test_a_string_growing_past_a_chunk(self):
        derived, _ = self.derive(self.BIG, lambda root: self.with_child(
            root, 5, self.with_child(
                root.children[5], 0,
                FrozenElement("b", None, ("x" * DEFAULT_CHUNK_SIZE,)))))
        assert derived is MISS

    def test_a_rope_shrinking_into_a_chunk(self):
        xml = f"<r><a><b>{'x' * 3000}</b></a><c><d>{'y' * 2000}</d></c></r>"
        derived, _ = self.derive(xml, lambda root: self.with_child(
            root, 0, self.with_child(root.children[0], 0,
                                     parse_frozen("<b>short</b>").root)))
        assert derived is MISS

    def test_an_evicted_base(self):
        db = SnapshotXmlDatabase(pool=InternPool(fragment_capacity=1))
        db.create_collection("c")
        db.insert("c", "d", self.BIG)
        db.insert("c", "e", self.BIG)
        db.current().serialize("c", "d")
        db.set_text("c", "d", "/r/a[3]/b", "three")
        db.current().serialize("c", "e")        # evicts d's base
        new = db.current().document("c", "d").root
        assert new in db.pool._bases
        assert db.pool.derive(new) is MISS
        assert read(db) == expected(db)

    def test_a_changed_rope_below_the_root(self):
        xml = "<lib>" + "".join(
            "<shelf>" + "".join(f"<book><t>title {s}-{b}</t></book>"
                                for b in range(200)) + "</shelf>"
            for s in range(3)) + "</lib>"
        derived, _ = self.derive(xml, lambda root: self.with_child(
            root, 1, self.with_child(root.children[1], 0, parse_frozen(
                "<book><t>new</t></book>").root)))
        assert derived is MISS


class TestBaseMapBound:
    def store(self, docs: int = 3) -> SnapshotXmlDatabase:
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        for k in range(docs):
            db.insert("c", f"d{k}", TestFallbacks.BIG)
        return db

    def edit(self, db, doc_id: str, text: str = "e") -> None:
        db.set_text("c", doc_id, "/r/a[1]/b", text)

    def test_a_never_read_document_gets_no_entry(self):
        db = self.store()
        for k in range(5):
            self.edit(db, "d0", str(k))
        assert db.pool._bases == {}

    def test_one_entry_per_read_document_however_many_epochs(self):
        db = self.store()
        db.current().serialize("c", "d0")
        for k in range(5):
            self.edit(db, "d0", str(k))
            assert len(db.pool._bases) == 1
        db.current().serialize("c", "d0")
        self.edit(db, "d0", "again")
        assert len(db.pool._bases) == 1

    @pytest.mark.parametrize("drop", ["delete", "replace", "drop"])
    def test_delete_replace_and_drop_collection_drop_the_entry(self, drop):
        db = self.store()
        db.current().serialize("c", "d0")
        with db.writer():
            self.edit(db, "d0")
        assert len(db.pool._bases) == 1
        with db.writer():
            self.edit(db, "d0", "pending")      # unpublished, then gone
            if drop == "delete":
                db.delete("c", "d0")
            elif drop == "replace":
                db.replace("c", "d0", TestFallbacks.BIG)
            else:
                db.drop_collection("c")
        assert db.pool._bases == {}

    def test_an_edit_that_changes_nothing(self):
        """Removing an absent attribute keeps the root: the pair is
        (root, root), and reads stay right."""
        db = self.store(1)
        db.current().serialize("c", "d0")
        db.remove_attribute("c", "d0", "/r", "absent")
        assert len(db.pool._bases) <= 1
        self.edit(db, "d0", "after")
        assert db.current().serialize("c", "d0") == serialize_element(
            db.current().document("c", "d0").root)
        assert len(db.pool._bases) == 1

    def test_entries_never_outnumber_live_documents(self):
        rng = random.Random(5)
        db = self.store(4)
        live = {f"d{k}" for k in range(4)}
        for step in range(300):
            doc_id = rng.choice(sorted(live))
            kind = rng.random()
            if kind < 0.4:
                db.current().serialize("c", doc_id)
            elif kind < 0.85:
                self.edit(db, doc_id, str(step))
            elif kind < 0.95:
                db.delete("c", doc_id)
                live.discard(doc_id)
                if not live:
                    db.insert("c", "d0", TestFallbacks.BIG)
                    live.add("d0")
            else:
                db.replace("c", doc_id, TestFallbacks.BIG)
            assert len(db.pool._bases) <= len(live)
            for other in live:
                assert db.current().serialize("c", other) == \
                    serialize_element(db.current().document("c", other).root)

"""Snapshot XML database: equivalence with the live store + interning."""

import pytest

from repro.core.errors import ConfigurationError, QueryError
from repro.merkle.xml_merkle import document_hash
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.database import Collection
from repro.xmldb.model import Element
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize, serialize_element

DOCS = {
    "d1": ("<hospital><record id=\"1\"><name>Ann &amp; Bo</name>"
           "<diagnosis>flu</diagnosis></record></hospital>"),
    "d2": "<hospital><record id=\"2\"><name>Cy &lt;jr&gt;</name></record>"
          "</hospital>",
    "d3": "<pharmacy><drug name=\"aspirin\">stocked</drug></pharmacy>",
}


def snapshot_db():
    db = SnapshotXmlDatabase()
    db.create_collection("c")
    for doc_id, xml in DOCS.items():
        db.insert("c", doc_id, xml)
    return db


def live_collection():
    collection = Collection("c")
    for doc_id, xml in DOCS.items():
        collection.insert(doc_id, xml)
    return collection


class TestEquivalence:
    def test_serialize_matches_live_store_byte_for_byte(self):
        snap = snapshot_db().current()
        live = live_collection()
        for doc_id in DOCS:
            assert (snap.serialize("c", doc_id)
                    == serialize(live.get(doc_id)))

    def test_merkle_root_matches_live_document_hash(self):
        snap = snapshot_db().current()
        live = live_collection()
        for doc_id in DOCS:
            assert (snap.merkle_root("c", doc_id)
                    == document_hash(live.get(doc_id)))

    def test_query_matches_live_collection(self):
        snap = snapshot_db().current()
        live = live_collection()
        for xpath in ("//record/name", "/hospital/record",
                      "//drug/@name", "//nothing"):
            live_results = [
                (doc_id, item if isinstance(item, str)
                 else serialize_element(item))
                for doc_id, item in live.query(xpath)]
            snap_results = [
                (doc_id, item if isinstance(item, str)
                 else snap._pool.serialize(item))
                for doc_id, item in snap.query("c", xpath)]
            assert snap_results == live_results, xpath

    def test_edits_keep_equivalence(self):
        db = snapshot_db()
        live = live_collection()

        db.set_text("c", "d1", "/hospital/record/diagnosis", "cold")
        doc = live.get("d1")
        doc.root.element_children[0].element_children[1].set_text("cold")

        db.set_attribute("c", "d2", "/hospital/record", "ward", "7")
        live.get("d2").root.element_children[0].set_attribute("ward", "7")

        db.append_child("c", "d3", "/pharmacy",
                        parse("<drug name=\"ibuprofen\"/>").root)
        live.get("d3").root.append(Element("drug", {"name": "ibuprofen"}))

        db.remove_child("c", "d1", "/hospital/record/name")
        record = live.get("d1").root.element_children[0]
        record.remove(record.element_children[0])

        snap = db.current()
        for doc_id in DOCS:
            assert (snap.serialize("c", doc_id)
                    == serialize(live.get(doc_id))), doc_id
            assert (snap.merkle_root("c", doc_id)
                    == document_hash(live.get(doc_id))), doc_id

    def test_thawed_document_serializes_identically_and_is_cached(self):
        snap = snapshot_db().current()
        thawed = snap.thawed("c", "d1")
        assert serialize(thawed) == snap.serialize("c", "d1")
        # Cached by frozen-root identity: same object on repeat reads.
        assert snap.thawed("c", "d1") is thawed


class TestStoreSemantics:
    def test_navigation(self):
        db = snapshot_db()
        snap = db.current()
        assert snap.collection_names() == ["c"]
        assert snap.doc_ids("c") == ["d1", "d2", "d3"]
        assert snap.total_documents() == 3
        assert dict(snap.documents("c"))["d2"].name == "d2"
        assert snap.resolve("c", "d3", "/pharmacy/drug").text == "stocked"

    def test_duplicate_and_missing_raise(self):
        db = snapshot_db()
        with pytest.raises(ConfigurationError):
            db.insert("c", "d1", "<dup/>")
        with pytest.raises(ConfigurationError):
            db.create_collection("c")
        with pytest.raises(QueryError):
            db.delete("c", "nope")
        with pytest.raises(QueryError):
            db.current().document("nope", "d1")
        with pytest.raises(QueryError):
            db.current().document("c", "nope")

    def test_replace_and_delete(self):
        db = snapshot_db()
        db.replace("c", "d3", "<pharmacy><drug>out</drug></pharmacy>")
        assert db.current().serialize(
            "c", "d3") == "<pharmacy><drug>out</drug></pharmacy>"
        db.delete("c", "d3")
        assert db.current().doc_ids("c") == ["d1", "d2"]

    def test_generation_advances_per_write(self):
        db = snapshot_db()
        generation = db.generation
        db.set_text("c", "d1", "/hospital/record/diagnosis", "x")
        assert db.generation == generation + 1
        assert db.current().generation == db.generation


class TestInterning:
    def test_repeat_serialization_is_a_cache_hit(self):
        db = snapshot_db()
        snap = db.current()
        first = snap.serialize("c", "d1")
        hits_before = db.pool.stats()["fragments"]["hits"]
        assert snap.serialize("c", "d1") == first
        assert db.pool.stats()["fragments"]["hits"] > hits_before

    def test_untouched_subtrees_reuse_bytes_across_epochs(self):
        """After an edit, the *new* epoch's serialization recomputes only
        the copied spine — untouched records hit the pool by identity."""
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        xml = "<hospital>" + "".join(
            f"<record id=\"{i}\"><name>patient number {i}</name>"
            f"<diagnosis>{'flu' * 30}</diagnosis></record>"
            for i in range(50)) + "</hospital>"     # outgrows a chunk
        db.insert("c", "big", xml)
        db.current().serialize("c", "big")  # warm the pool on epoch N
        db.set_text("c", "big", "/hospital/record[3]/diagnosis", "cold")
        stats = db.pool.stats()["fragments"]
        hits, misses = stats["hits"], stats["misses"]
        after = db.current().serialize("c", "big")  # epoch N+1
        assert after == xml.replace(
            f"<name>patient number 2</name><diagnosis>{'flu' * 30}",
            "<name>patient number 2</name><diagnosis>cold")
        stats = db.pool.stats()["fragments"]
        # The 49 untouched records were shared: cache hits.  Only the
        # rebuilt hospital and record were looked up and missed — leaf
        # elements (name, diagnosis) are never probed.
        assert stats["hits"] - hits == 49
        assert stats["misses"] - misses == 2

    def test_merkle_interning_across_epochs(self):
        db = snapshot_db()
        db.current().merkle_root("c", "d1")
        db.set_attribute("c", "d1", "/hospital/record", "ward", "9")
        misses = db.pool.stats()["merkle"]["misses"]
        db.current().merkle_root("c", "d1")
        # Spine = hospital + record; name and diagnosis subtrees shared.
        assert db.pool.stats()["merkle"]["misses"] - misses == 2

    def test_identical_subtrees_in_different_documents_do_not_alias(self):
        """Interning is by identity, not by structural equality — two
        equal-looking subtrees are distinct cache entries."""
        pool = InternPool()
        db = SnapshotXmlDatabase(pool=pool)
        db.create_collection("c")
        db.insert("c", "a", "<doc><x>same</x></doc>")
        db.insert("c", "b", "<doc><x>same</x></doc>")
        snap = db.current()
        assert snap.serialize("c", "a") == snap.serialize("c", "b")
        root_a = snap.document("c", "a").root
        root_b = snap.document("c", "b").root
        assert root_a is not root_b

"""Snapshot XML database: equivalence with the live store + interning."""

import sys
import threading

import pytest

from repro.core.errors import ConfigurationError, QueryError
from repro.merkle.xml_merkle import document_hash
from repro.snap.frozen import thaw_document
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

    def test_thawed_document_serializes_identically(self):
        snap = snapshot_db().current()
        thawed = thaw_document(snap.document("c", "d1"))
        assert serialize(thawed) == snap.serialize("c", "d1")


class TestConcurrentReaders:
    def test_reader_threads_see_their_epochs_bytes_while_a_writer_runs(self):
        """Readers on four threads hold an epoch from ``current()`` or
        ``reading()`` across a pass over every document (and the first
        epoch across the whole run), lock-free, while a writer advances
        the epoch with each edit.  Every read is byte-identical to the
        live store's serialization as of the epoch that read saw."""
        db, live = snapshot_db(), live_collection()
        expected = {db.current().epoch: {
            doc_id: serialize(live.get(doc_id)) for doc_id in DOCS}}
        done = threading.Event()
        start = threading.Barrier(5, timeout=60)
        reads: list[list[tuple[int, str, str]]] = [[] for _ in range(4)]

        def read_all(out, snap):
            for doc_id in sorted(DOCS):
                out.append((snap.epoch, doc_id, snap.serialize("c", doc_id)))

        def reader(out):
            with db.epochs.reading() as first:
                read_all(out, first)  # before any write
                start.wait()
                while not done.is_set():
                    read_all(out, db.current())
                    with db.epochs.reading() as snap:
                        read_all(out, snap)
                read_all(out, first)  # pinned across every write
            read_all(out, db.current())  # after the last write

        def writer():
            start.wait()
            try:
                for step in range(60):
                    record = live.get(f"d{1 + step % 2}").root \
                        .element_children[0]
                    if step % 2:
                        db.set_attribute("c", "d2", "/hospital/record",
                                         "step", str(step))
                        record.set_attribute("step", str(step))
                    else:
                        db.set_text("c", "d1", "/hospital/record/diagnosis",
                                    f"dx-{step}")
                        record.element_children[1].set_text(f"dx-{step}")
                    expected[db.current().epoch] = {
                        doc_id: serialize(live.get(doc_id))
                        for doc_id in DOCS}
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(out,), daemon=True)
                   for out in reads]
        threads.append(threading.Thread(target=writer, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(expected) == 61
        seen = [entry for out in reads for entry in out]
        assert len({epoch for epoch, _, _ in seen}) >= 2
        for epoch, doc_id, text in seen:
            assert text == expected[epoch][doc_id], (epoch, doc_id)


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

    def test_epoch_advances_per_write(self):
        db = snapshot_db()
        epoch = db.current().epoch
        db.set_text("c", "d1", "/hospital/record/diagnosis", "x")
        assert db.current().epoch == epoch + 1


class TestWriterBlockCopiesOnce:
    """Work, not time: a ``writer()`` block copies the collections dict
    and the touched collection's dict once, whatever the store holds —
    and nothing a snapshot already holds is ever edited."""

    EDITS = 8

    @staticmethod
    def store_with(documents):
        db = SnapshotXmlDatabase()
        db.create_collection("other")
        db.create_collection("c")
        with db.writer():
            for n in range(documents):
                db.insert("c", f"d{n}", "<doc><v>0</v></doc>")
        return db

    def dict_copies(self, db):
        """(outer, touched-collection) dict copies over one block."""
        copies = [0, 0]
        outer, inner = db._collections, db._collections["c"]
        with db.writer():
            for n in range(self.EDITS):
                db.set_text("c", "d0", "/doc/v", str(n + 1))
                copies[0] += db._collections is not outer
                copies[1] += db._collections["c"] is not inner
                outer, inner = db._collections, db._collections["c"]
        return copies

    def test_dicts_keep_their_identity_from_the_second_edit_on(self):
        db = self.store_with(8)
        published = db._collections
        with db.writer():
            db.set_text("c", "d0", "/doc/v", "1")
            outer, inner = db._collections, db._collections["c"]
            assert outer is not published
            assert inner is not published["c"]
            for n in range(2, self.EDITS + 1):
                db.set_text("c", "d0", "/doc/v", str(n))
                assert db._collections is outer
                assert db._collections["c"] is inner
            assert outer["other"] is published["other"]  # untouched
        assert db.current().serialize("c", "d0") == "<doc><v>8</v></doc>"

    def test_copies_per_transaction_do_not_grow_with_the_collection(self):
        assert (self.dict_copies(self.store_with(64))
                == self.dict_copies(self.store_with(512)) == [1, 1])

    def test_no_snapshot_ever_shows_a_later_edit(self):
        db = self.store_with(4)
        pinned = db.current()
        frozen_before = db.freeze()
        with db.writer():
            db.set_text("c", "d0", "/doc/v", "1")
            frozen_during = db.freeze()  # takes the private dicts...
            inner = db._collections["c"]
            db.set_text("c", "d0", "/doc/v", "2")
            assert db._collections["c"] is not inner  # ...so: copy again
            db.insert("c", "new", "<doc/>")
            db.create_collection("late")
        for snapshot in (pinned, frozen_before):
            assert snapshot.serialize("c", "d0") == "<doc><v>0</v></doc>"
            assert snapshot.collection_names() == ["c", "other"]
        assert frozen_during.serialize("c", "d0") == "<doc><v>1</v></doc>"
        assert "new" not in frozen_during.doc_ids("c")
        assert frozen_during.collection_names() == ["c", "other"]
        current = db.current()
        assert current.serialize("c", "d0") == "<doc><v>2</v></doc>"
        assert current.collection_names() == ["c", "late", "other"]

    def test_a_rejected_edit_changes_nothing(self):
        db = self.store_with(2)
        with db.writer():
            db.set_text("c", "d0", "/doc/v", "1")
            with pytest.raises(Exception):
                db.set_text("c", "d0", "/doc/missing", "2")
            with pytest.raises(ConfigurationError):
                db.insert("c", "d1", "<doc/>")
        assert db.current().serialize("c", "d0") == "<doc><v>1</v></doc>"
        assert db.current().serialize("c", "d1") == "<doc><v>0</v></doc>"


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

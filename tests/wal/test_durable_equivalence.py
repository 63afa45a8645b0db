"""Store behaviours under their durable wrappers.

Each durable kind wraps one plain store.  Every behaviour here is
checked twice: the live wrapper answers like the plain store holding
the same content, and the store recovered from its log answers the
same and has the live ``state_digest()``.
"""

import random

import pytest

from repro.core.errors import AccessDenied, RegistryError
from repro.relational.authorization import Privilege
from repro.relational.database import Database
from repro.relational.table import Column, ColumnType, TableSchema
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.uddi.model import (
    BusinessEntity,
    BusinessService,
    PublisherAssertion,
    TModel,
)
from repro.uddi.registry import UddiRegistry
from repro.wal.durable import (
    DurableRelationalStore,
    DurableUddiRegistry,
    DurableXmlStore,
)
from repro.wal.vfs import MemVfs
from repro.xmldb.database import Collection
from repro.xmldb.parser import parse


def recover(store):
    """Close *store* and rebuild it from its log; the recovered store
    must have the live digest."""
    live = store.state_digest()
    store.close()
    recovered, _ = type(store).recover(store.vfs, auto_flush=False)
    assert recovered.state_digest() == live
    return recovered


def even_id(row):
    return row["id"] % 2 == 0


def odd_id(row):
    return row["id"] % 2 == 1


# -- relational ------------------------------------------------------------


def schema(name: str) -> TableSchema:
    return TableSchema(name, (Column("id", ColumnType.INT),
                              Column("val", ColumnType.TEXT)))


def build_databases(table_order, rows=15):
    plain = Database("plain")
    durable = DurableRelationalStore(Database(), MemVfs(), auto_flush=False)
    for name in table_order:
        for db in (plain, durable):
            db.create_table(schema(name), owner="dba")
        plain.authorization.grant("dba", "reader", name, Privilege.SELECT)
        durable.grant("dba", "reader", name, Privilege.SELECT)
        for r in range(rows):
            for db in (plain, durable):
                db.insert("dba", name, id=r, val=f"v{name}-{r}")
    return plain, durable


TABLES = [f"t{t:02d}" for t in range(10)]


class TestRelational:
    def test_selects_equal_plain_and_survive_recovery(self):
        plain, durable = build_databases(TABLES)
        expected = [plain.select("reader", name, order_by="id").rows
                    for name in TABLES]
        assert [durable.select("reader", name, order_by="id").rows
                for name in TABLES] == expected
        recovered = recover(durable)
        assert [recovered.select("reader", name, order_by="id").rows
                for name in TABLES] == expected

    def test_table_names_sorted(self):
        plain, durable = build_databases(TABLES[:4])
        assert durable.table_names() == plain.table_names() == TABLES[:4]
        assert recover(durable).table_names() == TABLES[:4]

    def test_enforcement_is_complete_after_recovery(self):
        _, durable = build_databases(TABLES[:6])
        recovered = recover(durable)
        for name in recovered.table_names():
            with pytest.raises(AccessDenied):
                recovered.select("stranger", name)

    def test_join_equals_plain(self):
        plain, durable = build_databases(TABLES[:4], rows=8)
        expected = plain.join("reader", "t00", "t03", on=("id", "id")).rows
        assert durable.join("reader", "t00", "t03",
                            on=("id", "id")).rows == expected
        assert recover(durable).join("reader", "t00", "t03",
                                     on=("id", "id")).rows == expected

    def test_revoke_replays_through_the_grant_graph(self):
        _, durable = build_databases(TABLES[:2], rows=3)
        durable.revoke("dba", "reader", "t01", Privilege.SELECT)
        recovered = recover(durable)
        assert len(recovered.select("reader", "t00").rows) == 3
        with pytest.raises(AccessDenied):
            recovered.select("reader", "t01")

    def test_row_filter_survives_checkpoint_and_replay(self):
        _, durable = build_databases(TABLES[:1], rows=6)
        durable.grant("dba", "auditor", "t00", Privilege.SELECT,
                      row_filter=even_id)
        assert durable.checkpoint() is True
        durable.grant("dba", "clerk", "t00", Privilege.SELECT,
                      row_filter=even_id)
        recovered = recover(durable)
        for user in ("auditor", "clerk"):
            assert [row[0] for row in recovered.select(
                user, "t00", columns=["id"], order_by="id").rows] == [
                    0, 2, 4]

    @pytest.mark.parametrize("checkpoint_at", [None, 1],
                             ids=["log", "checkpoint_and_tail"])
    def test_update_and_delete_equal_plain_and_survive_recovery(
            self, checkpoint_at):
        plain, durable = build_databases(TABLES[:2], rows=6)
        edits = [lambda db: db.update("dba", "t00", even_id,
                                      {"val": "even"}),
                 lambda db: db.delete("dba", "t01", even_id),
                 lambda db: db.update("dba", "t01", odd_id,
                                      {"val": "odd"})]
        for index, edit in enumerate(edits):
            if index == checkpoint_at:
                assert durable.checkpoint() is True
            assert edit(durable) == edit(plain)

        def rows(db):
            return [db.select("reader", name, order_by="id").rows
                    for name in TABLES[:2]]

        expected = rows(plain)
        assert rows(durable) == expected
        assert rows(recover(durable)) == expected

    def test_insertion_shuffle_order_is_irrelevant(self):
        shuffled = list(TABLES)
        random.Random(41).shuffle(shuffled)
        _, ordered = build_databases(TABLES, rows=4)
        _, scrambled = build_databases(shuffled, rows=4)
        assert ordered.table_names() == scrambled.table_names() == TABLES
        assert ordered.state_digest() == scrambled.state_digest()
        ordered, scrambled = recover(ordered), recover(scrambled)
        assert [ordered.select("reader", n).rows for n in TABLES] == \
            [scrambled.select("reader", n).rows for n in TABLES]


# -- XML -------------------------------------------------------------------


def record(i: int) -> str:
    return (f"<rec><id>{i}</id><name>n{i}</name>"
            f"<dept>d{i % 5}</dept></rec>")


def build_collections(order):
    plain = Collection("c")
    durable = DurableXmlStore(SnapshotXmlDatabase(), MemVfs(),
                              auto_flush=False)
    durable.create_collection("c")
    for i in order:
        plain.insert(f"doc{i:03d}", parse(record(i), name=f"doc{i:03d}"))
        durable.insert("c", f"doc{i:03d}", record(i))
    return plain, durable


def comparable(hits):
    """(doc id, text or element tag): comparable across the plain
    store's elements and the snapshot's frozen ones."""
    return [(doc_id, item if isinstance(item, str) else item.tag)
            for doc_id, item in hits]


def query_rows(store, xpath):
    return comparable(store.current().query("c", xpath))


XPATHS = ("/rec/name", "/rec/name/text()", "//rec[dept='d2']/id/text()",
          "/rec")


class TestXml:
    def test_queries_equal_plain_and_survive_recovery(self):
        plain, durable = build_collections(range(30))
        expected = {xpath: comparable(plain.query(xpath))
                    for xpath in XPATHS}
        live = {xpath: query_rows(durable, xpath) for xpath in XPATHS}
        recovered = recover(durable)
        assert live == expected
        assert {xpath: query_rows(recovered, xpath)
                for xpath in XPATHS} == expected

    def test_lifecycle_and_doc_ids(self):
        plain, durable = build_collections(range(12))
        plain.delete("doc003")
        durable.delete("c", "doc003")
        recovered = recover(durable)
        assert recovered.current().doc_ids("c") == plain.doc_ids()
        assert "doc003" not in recovered.current().doc_ids("c")

    @pytest.mark.parametrize("checkpoint_at", [None, 3],
                             ids=["log", "checkpoint_and_tail"])
    def test_point_edits_equal_plain_and_survive_recovery(
            self, checkpoint_at):
        plain, durable = SnapshotXmlDatabase(), DurableXmlStore(
            SnapshotXmlDatabase(), MemVfs(), auto_flush=False)
        child = '<note kind="a">x<b>y</b></note>'
        for store in (plain, durable):
            store.create_collection("c")
            for i in range(6):
                store.insert("c", f"doc{i:03d}", record(i))
        # The durable store takes the child as text or as an element;
        # the plain store only as an element.
        edits = [
            lambda db: db.create_collection("scratch"),
            lambda db: db.insert("scratch", "s", "<s/>"),
            lambda db: db.set_attribute("c", "doc001", "/rec", "flag",
                                        "on"),
            lambda db: db.set_attribute("c", "doc002", "/rec/name",
                                        "lang", "en"),
            lambda db: db.remove_attribute("c", "doc002", "/rec/name",
                                           "lang"),
            lambda db: db.append_child(
                "c", "doc003", "/rec",
                child if db is durable else parse(child).root),
            lambda db: db.append_child("c", "doc005", "/rec",
                                       parse(child).root),
            lambda db: db.remove_child("c", "doc004", "/rec/dept"),
            lambda db: db.drop_collection("scratch"),
        ]
        for index, edit in enumerate(edits):
            if index == checkpoint_at:
                assert durable.checkpoint() is True
            edit(durable)
            edit(plain)

        def documents(db):
            snapshot = db.current()
            return {collection: {doc_id: snapshot.serialize(collection,
                                                            doc_id)
                                 for doc_id in snapshot.doc_ids(collection)}
                    for collection in snapshot.collection_names()}

        expected = documents(plain)
        assert list(expected) == ["c"]
        assert 'flag="on"' in expected["c"]["doc001"]
        assert "<dept>" not in expected["c"]["doc004"]
        assert documents(durable) == expected
        assert durable.state_digest() == \
            DurableXmlStore._digest_of(plain.current())
        assert documents(recover(durable)) == expected

    def test_insertion_shuffle_order_is_irrelevant(self):
        ids = list(range(20))
        shuffled = list(ids)
        random.Random(51).shuffle(shuffled)
        _, ordered = build_collections(ids)
        _, scrambled = build_collections(shuffled)
        expected = [f"doc{i:03d}" for i in ids]
        assert ordered.current().doc_ids("c") == expected
        assert scrambled.current().doc_ids("c") == expected
        assert ordered.state_digest() == scrambled.state_digest()
        assert query_rows(recover(ordered), "/rec/id/text()") == \
            query_rows(recover(scrambled), "/rec/id/text()")


# -- UDDI ------------------------------------------------------------------


def entity(i: int) -> BusinessEntity:
    return BusinessEntity(
        business_key=f"biz-{i:03d}", name=f"Corp {i}",
        description=f"vendor {i}",
        services=(BusinessService(
            service_key=f"svc-{i:03d}", name=f"service {i}",
            category="payments" if i % 2 else "logistics"),))


def build_registries(order=range(20)):
    plain = UddiRegistry("plain")
    durable = DurableUddiRegistry(UddiRegistry(), MemVfs(), auto_flush=False)
    for i in order:
        for registry in (plain, durable):
            registry.save_business(entity(i), publisher=f"pub{i % 3}")
    return plain, durable


def assert_mutual(registries, left, right):
    for registry in registries:
        registry.add_assertion(PublisherAssertion(left, right, "partner"),
                               publisher=registry.owner_of(left))
        registry.add_assertion(PublisherAssertion(right, left, "partner"),
                               publisher=registry.owner_of(right))


class TestUddi:
    def test_finds_equal_plain_and_survive_recovery(self):
        plain, durable = build_registries()

        def finds(registry):
            return (registry.find_business("*"),
                    registry.find_service("*"),
                    registry.find_service("*", category="payments"))

        assert finds(durable) == finds(plain)
        assert finds(recover(durable)) == finds(plain)

    def test_state_digest_byte_identical_to_plain(self):
        plain, durable = build_registries()
        tmodel = TModel(tmodel_key="tm-1", name="https-binding")
        plain.save_tmodel(tmodel, publisher="pub0")
        durable.save_tmodel(tmodel, publisher="pub0")
        assert durable.state_digest() == plain.state_digest()
        assert recover(durable).state_digest() == plain.state_digest()

    def test_drill_down_after_recovery(self):
        plain, durable = build_registries()
        recovered = recover(durable)
        assert recovered.get_business_detail("biz-004") == \
            plain.get_business_detail("biz-004")
        assert recovered.get_service_detail("svc-007") == \
            plain.get_service_detail("svc-007")
        with pytest.raises(RegistryError):
            recovered.get_service_detail("svc-999")

    def test_mutual_assertions(self):
        plain, durable = build_registries(range(10))
        for left, right in [("biz-000", "biz-007"), ("biz-003", "biz-005")]:
            assert_mutual((plain, durable), left, right)
        # One-sided assertion: must stay invisible in both.
        for registry in (plain, durable):
            registry.add_assertion(
                PublisherAssertion("biz-001", "biz-002", "partner"),
                publisher=registry.owner_of("biz-001"))
        recovered = recover(durable)
        for key in [f"biz-{i:03d}" for i in range(10)]:
            assert recovered.find_related_businesses(key) == \
                plain.find_related_businesses(key)
        assert recovered.state_digest() == plain.state_digest()

    def test_delete_purges_another_owners_assertions(self):
        plain, durable = build_registries(range(8))
        assert_mutual((plain, durable), "biz-000", "biz-001")
        owner = plain.owner_of("biz-001")
        assert plain.owner_of("biz-000") != owner
        plain.delete_business("biz-001", owner)
        durable.delete_business("biz-001", owner)
        assert plain.assertions() == []
        recovered = recover(durable)
        assert recovered.find_related_businesses("biz-000") == []
        assert recovered.assertions() == []
        assert recovered.state_digest() == plain.state_digest()

    def test_no_unlogged_purge_mutator(self):
        _, durable = build_registries(range(2))
        assert not hasattr(durable, "purge_assertions")
        assert not hasattr(UddiRegistry(), "purge_assertions")

    def test_ownership_enforced_and_refusals_unlogged(self):
        _, durable = build_registries(range(6))
        before = durable.wal.last_appended
        with pytest.raises(RegistryError):
            durable.delete_business("biz-000", "not-the-owner")
        with pytest.raises(RegistryError):
            durable.add_assertion(
                PublisherAssertion("biz-000", "biz-001", "partner"),
                publisher="not-the-owner")
        assert durable.wal.last_appended == before

    def test_idempotent_writes_replay_once(self):
        _, durable = build_registries(range(4))
        new = BusinessEntity(business_key="biz-new", name="New Corp")
        durable.save_business(new, "pub9", idempotency_key="op-1")
        count = durable.publish_count
        durable.save_business(new, "pub9", idempotency_key="op-1")
        assert durable.publish_count == count
        recovered = recover(durable)
        assert recovered.has_applied("op-1")
        assert recovered.publish_count == count

    def test_insertion_shuffle_order_is_irrelevant(self):
        order = list(range(15))
        shuffled = list(order)
        random.Random(61).shuffle(shuffled)
        _, ordered = build_registries(order)
        _, scrambled = build_registries(shuffled)
        assert ordered.find_business("*") == scrambled.find_business("*")
        assert recover(ordered).state_digest() == \
            recover(scrambled).state_digest()

"""Durable wrappers: log-then-ack, checkpoints, recovery digests."""

import struct
from typing import Callable, NamedTuple

import pytest

from repro.core.credentials import (
    CredentialType,
    anyone,
    attribute_in,
    has_role,
)
from repro.core.errors import (
    DurabilityLagExceeded,
    ReproError,
    WalCorrupt,
    WalError,
)
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, grant
from repro.core.subjects import Role, Subject
from repro.relational.authorization import Privilege
from repro.relational.database import Database
from repro.relational.table import Column, ColumnType, TableSchema
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.uddi.model import BusinessEntity, PublisherAssertion
from repro.uddi.registry import UddiRegistry
from repro.wal.checksum import checksum_fn
from repro.wal.durable import (
    DurablePolicyStore,
    DurableRelationalStore,
    DurableUddiRegistry,
    DurableXmlStore,
)
from repro.wal.format import HEADER_SIZE, segment_name
from repro.wal.vfs import MemVfs


def xml_store(vfs, **kwargs):
    kwargs.setdefault("auto_flush", False)
    return DurableXmlStore(SnapshotXmlDatabase(), vfs, **kwargs)


def seed_xml(store):
    store.create_collection("orders")
    store.insert("orders", "o1", "<order id=\"1\"><total>9</total></order>")
    store.insert("orders", "o2", "<order id=\"2\"><total>7</total></order>")
    store.replace("orders", "o1",
                  "<order id=\"1\"><total>12</total></order>")


def seed_uddi(registry):
    for key, owner in (("biz-a", "alice"), ("biz-b", "bob"),
                       ("biz-c", "alice")):
        registry.save_business(
            BusinessEntity(business_key=key, name=key.upper()), owner)
    registry.add_assertion(PublisherAssertion("biz-a", "biz-b", "peer"),
                           "alice")


PATIENTS = TableSchema("patients", (
    Column("id", ColumnType.INT),
    Column("name", ColumnType.TEXT)), primary_key="id")


def seed_relational(db):
    db.create_table(PATIENTS, "root")
    db.insert("root", "patients", id=1, name="Ada")
    db.insert("root", "patients", id=2, name="Grace")
    db.grant("root", "bob", "patients", Privilege.SELECT)


def seed_policies(store):
    store.add(grant(anyone(), Action.READ, "/a"))
    dropped = store.add(grant(anyone(), Action.READ, "/b"))
    store.add(grant(anyone(), Action.WRITE, "/c"))
    store.remove(dropped)


class Kind(NamedTuple):
    cls: type
    inner: Callable
    seed: Callable      # four transactions
    more: Callable      # (store, n): one more, distinct per n
    rejected: Callable  # an op the inner store refuses


KINDS = {
    "xml": Kind(
        DurableXmlStore, SnapshotXmlDatabase, seed_xml,
        lambda s, n: s.insert("orders", f"n{n}", f"<order id=\"{n}\"/>"),
        lambda s: s.insert("nowhere", "d1", "<x/>")),
    "uddi": Kind(
        DurableUddiRegistry, UddiRegistry, seed_uddi,
        lambda s, n: s.save_business(
            BusinessEntity(business_key=f"biz-n{n}", name=f"N{n}"),
            "carol"),
        lambda s: s.delete_business("biz-a", "bob")),
    "relational": Kind(
        DurableRelationalStore, Database, seed_relational,
        lambda s, n: s.insert("root", "patients", id=10 + n,
                              name=f"p{n}"),
        lambda s: s.insert("bob", "patients", id=99, name="Eve")),
    "policy": Kind(
        DurablePolicyStore, PolicyBase, seed_policies,
        lambda s, n: s.add(grant(anyone(), Action.READ, f"/n{n}")),
        lambda s: s.remove(grant(anyone(), Action.READ, "/never-added"))),
}


def seeded(kind, vfs, **kwargs):
    spec = KINDS[kind]
    store = spec.cls(spec.inner(), vfs, auto_flush=False, **kwargs)
    spec.seed(store)
    return spec, store


@pytest.mark.parametrize("kind", list(KINDS))
class TestEveryKind:
    def test_checkpoint_then_recover_is_the_live_state(self, kind):
        vfs = MemVfs()
        spec, store = seeded(kind, vfs)
        assert store.checkpoint() is True
        digest = store.state_digest()
        store.close()
        recovered, report = spec.cls.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.checkpoint_digest == digest
        assert report.records_replayed == 0

    def test_checkpoint_bounds_replay(self, kind):
        vfs = MemVfs()
        spec, store = seeded(kind, vfs)
        assert store.checkpoint() is True
        spec.more(store, 0)
        digest = store.state_digest()
        store.close()
        recovered, report = spec.cls.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.checkpoint_lsn == 4
        assert report.records_replayed == 1  # just the op after it

    def test_restart_checkpoint_restart_cycle_stays_recoverable(self, kind):
        # Pre-recovery segments must register as sealed on reopen:
        # otherwise a checkpoint deletes only newly-sealed higher
        # -index segments around them, punching an index gap the next
        # recovery reads as a missing segment — an ordinary restart +
        # checkpoint + restart cycle would brick the store.
        vfs = MemVfs()
        spec, store = seeded(kind, vfs, segment_bytes=192)
        store.close()
        first, _ = spec.cls.recover(vfs, auto_flush=False, segment_bytes=192)
        inherited = [n for n in vfs.listdir() if n.endswith(".wal")]
        for n in range(8):
            spec.more(first, n)
        assert first.checkpoint() is True
        digest = first.state_digest()
        first.close()
        # The checkpoint reclaimed the pre-recovery chain prefix...
        assert not any(vfs.exists(name) for name in inherited)
        # ...and what remains is a recoverable contiguous chain.
        second, _ = spec.cls.recover(vfs, auto_flush=False, segment_bytes=192)
        assert second.state_digest() == digest

    def test_unchanged_digest_skips_the_checkpoint(self, kind):
        _, store = seeded(kind, MemVfs())
        assert store.checkpoint() is True
        assert store.checkpoint() is False

    def test_rejected_op_is_never_logged(self, kind):
        spec, store = seeded(kind, MemVfs())
        before = (store.state_digest(), store.wal.last_appended)
        with pytest.raises(ReproError):
            spec.rejected(store)
        assert (store.state_digest(), store.wal.last_appended) == before

    def test_reopen_without_recover_is_refused(self, kind):
        # A second store acknowledged writes from LSN 1 again: behind the
        # log's records or below a checkpoint's, lost to recovery.
        vfs = MemVfs()
        spec, store = seeded(kind, vfs)
        digest = store.state_digest()
        store.close()
        with pytest.raises(WalError, match=r"recover\(\)"):
            spec.cls(spec.inner(), vfs, auto_flush=False)
        recovered, _ = spec.cls.recover(vfs, auto_flush=False)
        assert recovered.checkpoint() is True  # truncates the whole log
        recovered.close()
        assert not any(name.endswith(".wal") for name in vfs.listdir())
        with pytest.raises(WalError, match=r"recover\(\)"):
            spec.cls(spec.inner(), vfs, auto_flush=False)
        again, _ = spec.cls.recover(vfs, auto_flush=False)
        assert again.state_digest() == digest

    def test_corrupt_log_recovers_typed(self, kind):
        vfs = MemVfs()
        spec, store = seeded(kind, vfs)
        store.close()
        # A bad first frame with valid frames after it is corruption,
        # not a torn tail.
        largest = max((n for n in vfs.listdir() if n.endswith(".wal")),
                      key=vfs.durable_size)
        vfs.corrupt_byte(largest, 30)
        with pytest.raises(WalCorrupt):
            spec.cls.recover(vfs, auto_flush=False)


class TestXmlStore:
    def test_recovery_is_byte_identical(self):
        vfs = MemVfs()
        store = xml_store(vfs)
        seed_xml(store)
        digest = store.state_digest()
        store.close()
        recovered, report = DurableXmlStore.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.records_replayed == 4
        assert "total>12" in recovered.current().serialize("orders", "o1")

    def test_group_settles_in_one_sync(self):
        store = xml_store(MemVfs())
        with store.group():
            seed_xml(store)
        stats = store.wal_stats()
        assert stats["lag"] == 0
        assert stats["log"]["syncs"] == 1

    def test_enqueue_mode_bounds_the_lag_typed(self):
        store = xml_store(MemVfs(), durability="enqueue", max_lag=3)
        store.create_collection("c")
        for n in range(3 - store.pipeline.lag):
            store.insert("c", f"d{n}", "<x/>")
        with pytest.raises(DurabilityLagExceeded):
            store.insert("c", "overflow", "<x/>")
        store.wal_sync()
        store.insert("c", "fits", "<x/>")

    def test_writer_block_is_one_durable_group(self):
        vfs = MemVfs()
        store = xml_store(vfs)
        with store.writer():
            store.create_collection("batch")
            store.insert("batch", "d1", "<x/>")
        assert store.durability_lag == 0
        digest = store.state_digest()
        store.close()
        recovered, _ = DurableXmlStore.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest


class TestUddiRegistry:
    def test_cross_shard_delete_replays_in_order(self):
        vfs = MemVfs()
        registry = DurableUddiRegistry(UddiRegistry(), vfs, auto_flush=False)
        registry.save_business(
            BusinessEntity(business_key="biz-001", name="Acme"), "alice")
        registry.save_business(
            BusinessEntity(business_key="biz-002", name="Globex"),
            "alice")
        registry.delete_business("biz-001", "alice")
        digest = registry.state_digest()
        registry.close()
        recovered, report = DurableUddiRegistry.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.records_replayed == 3


class TestRelationalStore:
    def test_replay_rebuilds_rows_and_grants(self):
        vfs = MemVfs()
        db = DurableRelationalStore(Database(), vfs, auto_flush=False)
        seed_relational(db)
        digest = db.state_digest()
        db.close()
        recovered, report = DurableRelationalStore.recover(
            vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.checkpoint_lsn == 0
        assert report.records_replayed == 4
        assert len(recovered.select("bob", "patients").rows) == 2

    def test_columns_named_like_wrapper_params_are_data(self):
        # Column values travel as a positional dict: a column named
        # "op" or "shard" must insert and replay as data, not collide
        # with _durable_op's own parameters.
        vfs = MemVfs()
        db = DurableRelationalStore(Database(), vfs, auto_flush=False)
        schema = TableSchema("audit", (
            Column("id", ColumnType.INT),
            Column("op", ColumnType.TEXT),
            Column("shard", ColumnType.INT)), primary_key="id")
        db.create_table(schema, "root")
        db.insert("root", "audit", id=1, op="grant", shard=3)
        digest = db.state_digest()
        db.close()
        recovered, report = DurableRelationalStore.recover(
            vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.records_replayed == 2

    def test_metadata_survives_checkpoint_and_replay(self):
        # Metadata is outside state_digest(): check it directly.
        vfs = MemVfs()
        db = DurableRelationalStore(Database(), vfs, auto_flush=False)
        seed_relational(db)
        db.set_metadata("patients", "privacy", "hipaa")
        assert db.checkpoint() is True
        db.set_metadata("patients", "owner", "ward-7")
        db.close()
        recovered, report = DurableRelationalStore.recover(
            vfs, auto_flush=False)
        assert report.records_replayed == 1
        assert recovered.get_metadata("patients", "privacy") == "hipaa"
        assert recovered.get_metadata("patients", "owner") == "ward-7"

    def test_unpicklable_args_are_refused_before_apply(self):
        db = DurableRelationalStore(Database(), MemVfs(), auto_flush=False)
        schema = TableSchema("t", (Column("id", ColumnType.INT),),
                             primary_key="id")
        db.create_table(schema, "root")
        before = (db.state_digest(), db.wal.last_appended)
        with pytest.raises(WalError) as excinfo:
            db.grant("root", "bob", "t", Privilege.SELECT,
                     row_filter=lambda row: True)
        assert "unpicklable" in str(excinfo.value)
        # The refused grant neither applied nor logged.
        assert (db.state_digest(), db.wal.last_appended) == before


class TestPolicyStore:
    def test_remove_by_id_survives_pickle_round_trip(self):
        vfs = MemVfs()
        store = DurablePolicyStore(PolicyBase(), vfs, auto_flush=False)
        store.add(grant(anyone(), Action.READ, "/a"))
        dropped = store.add(grant(anyone(), Action.READ, "/b"))
        store.remove(dropped)
        digest = store.state_digest()
        store.checkpoint()
        store.close()
        recovered, report = DurablePolicyStore.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest
        assert report.records_replayed == 0  # checkpoint covers all

    def test_credential_expression_survives_checkpoint_and_recovery(self):
        vfs = MemVfs()
        store = DurablePolicyStore(PolicyBase(), vfs, auto_flush=False)
        store.add(grant(
            attribute_in("staff", "ward", {"icu", "er"})
            & ~has_role("intern"), Action.READ, "/charts/**"))
        store.checkpoint()
        store.close()
        recovered, _ = DurablePolicyStore.recover(vfs, auto_flush=False)
        staff = CredentialType("staff", {"ward"})
        matching = Subject("nurse", credentials=[staff.issue(ward="icu")])
        intern = Subject("intern", roles={Role("intern")},
                         credentials=[staff.issue(ward="icu")])
        live = PolicyEvaluator(store.inner)
        after = PolicyEvaluator(recovered.inner)
        for subject, granted in ((matching, True), (intern, False)):
            decision = after.decide(subject, Action.READ, "/charts/7")
            assert decision.granted is granted
            assert decision.granted == live.decide(
                subject, Action.READ, "/charts/7").granted


def _rename(vfs, name):
    vfs.rename(name, name.replace("seg-000-", "seg-001-"))


def _repack_header(vfs, name):
    # As the sharded layout wrote shard 1: log field 1, valid checksum.
    data = vfs.read_bytes(name)
    head = data[:8] + struct.pack("!IQ", 1, 0)
    vfs.delete(name)
    handle = vfs.create(name)
    handle.write(head + struct.pack("!I", checksum_fn(data[6])(head))
                 + data[HEADER_SIZE:])
    handle.close()


@pytest.mark.parametrize("damage", [_rename, _repack_header],
                         ids=["name", "header"])
def test_a_sharded_layout_directory_fails_closed(damage):
    # Written when stores split records over logs: never half-recover.
    vfs = MemVfs()
    store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
    store.create_collection("c")
    store.close()
    damage(vfs, segment_name(0))
    with pytest.raises(WalCorrupt, match="log 1"):
        DurableXmlStore.recover(vfs)
    with pytest.raises(WalCorrupt, match="log 1"):
        DurableXmlStore(SnapshotXmlDatabase(), vfs)

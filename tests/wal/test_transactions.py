"""One transaction, one WAL record: crash atomicity, lock order, format.

A ``writer()``/``group()`` block is atomic for crashes exactly because
it is a single frame — valid or torn as a whole.  The crash tests tear
the written-but-unsynced tail at *every* byte length and demand a
recovered state some epoch actually published.
"""

import pickle
import sys
import threading
import time

import pytest

from repro.core.errors import QueryError, WalCorrupt, WalError
from repro.relational.authorization import Privilege
from repro.relational.database import Database
from repro.relational.table import Column, ColumnType, TableSchema
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.uddi.model import BusinessEntity
from repro.relational.durable import DurableRelationalStore
from repro.uddi.durable import DurableUddiRegistry
from repro.uddi.registry import UddiRegistry
from repro.wal.durable import DurableXmlStore, decode_ops
from repro.wal.log import WriteAheadLog
from repro.wal.replay import recover as scan_logs
from repro.wal.vfs import MemVfs


class UnsyncedVfs(MemVfs):
    """Once ``hold`` is set, ``sync()`` no longer reaches the platter:
    what a flush wrote stays pending — the crash window between
    ``write()`` and ``fsync()``, held open."""

    hold = False

    def create(self, name):
        handle = super().create(name)
        real_sync = handle.sync
        handle.sync = lambda: None if self.hold else real_sync()
        return handle


BEFORE = "<doc><a>0</a><b>0</b><c>0</c><d>0</d></doc>"
AFTER = "<doc><a>1</a><b>1</b><c>1</c><d>1</d></doc>"


def xml_transaction():
    vfs = UnsyncedVfs()
    store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
    store.create_collection("c")
    store.insert("c", "d", BEFORE)
    vfs.hold = True
    with store.writer():
        for tag in "abcd":
            store.set_text("c", "d", f"/doc/{tag}", "1")
    return vfs


def uddi_transaction():
    vfs = UnsyncedVfs()
    registry = DurableUddiRegistry(UddiRegistry(), vfs)
    registry.save_business(
        BusinessEntity(business_key="biz-000", name="Base"), "alice")
    before = registry.state_digest()
    vfs.hold = True
    with registry.group():
        for n in (1, 2, 3):
            registry.save_business(
                BusinessEntity(business_key=f"biz-00{n}", name=f"B{n}"),
                "alice")
    return vfs, before, registry.state_digest()


def pending_tail(vfs):
    (tail,) = [name for name in vfs.listdir()
               if vfs.size(name) > vfs.durable_size(name)]
    return tail, vfs.size(tail) - vfs.durable_size(tail)


class TestCrashAtomicity:
    def test_torn_writer_block_recovers_all_or_nothing(self):
        tail, pending = pending_tail(xml_transaction())
        assert pending > 100  # the four edits really are in flight
        for keep in range(pending + 1):
            vfs = xml_transaction()
            vfs.crash(keep_partial={tail: keep})
            recovered, report = DurableXmlStore.recover(vfs)
            document = recovered.current().serialize("c", "d")
            whole = keep == pending
            assert document == (AFTER if whole else BEFORE), (
                f"{keep}/{pending} bytes kept: recovered {document}, "
                f"a state no epoch ever published")
            assert bool(report.truncated) == (0 < keep < pending)

    def test_torn_uddi_group_recovers_all_or_nothing(self):
        vfs, before, after = uddi_transaction()
        tail, pending = pending_tail(vfs)
        assert before != after
        for keep in range(pending + 1):
            vfs, _, _ = uddi_transaction()
            vfs.crash(keep_partial={tail: keep})
            recovered, report = DurableUddiRegistry.recover(vfs)
            whole = keep == pending
            assert recovered.state_digest() == (after if whole
                                                else before)
            assert bool(report.truncated) == (0 < keep < pending)


class TestOneRecordPerTransaction:
    def test_a_block_is_one_frame_one_lsn(self):
        vfs = MemVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        store.create_collection("c")
        with store.writer():
            store.insert("c", "d", BEFORE)
            with store.group():  # nested: joins the outer transaction
                store.set_text("c", "d", "/doc/a", "1")
            store.set_text("c", "d", "/doc/b", "1")
        records = scan_logs(vfs, apply_truncation=False).records
        assert [lsn for lsn, _ in records] == [1, 2]
        assert [op for op, _, _ in decode_ops(*records[1])] == [
            "insert", "set_text", "set_text"]
        assert store.wal_stats()["log"]["syncs"] == 2

    def test_a_block_that_raises_logs_exactly_what_it_applied(self):
        vfs = MemVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        store.create_collection("c")
        with pytest.raises(QueryError):
            with store.writer():
                store.insert("c", "d", BEFORE)
                store.insert("nowhere", "d", BEFORE)
        assert store.wal.last_synced == store.wal.last_lsn
        live = store.state_digest()
        store.close()
        recovered, report = DurableXmlStore.recover(vfs)
        assert report.records_replayed == 2
        assert recovered.state_digest() == live
        assert recovered.current().serialize("c", "d") == BEFORE

    def test_unpicklable_argument_is_refused_mid_block_before_apply(self):
        vfs = MemVfs()
        db = DurableRelationalStore(Database(), vfs)
        schema = TableSchema("t", (Column("id", ColumnType.INT),),
                             primary_key="id")
        with pytest.raises(WalError) as excinfo:
            with db.group():
                db.create_table(schema, "root")
                applied = db.state_digest()
                db.grant("root", "bob", "t", Privilege.SELECT,
                         row_filter=lambda row: True)
        assert "unpicklable" in str(excinfo.value)
        assert db.state_digest() == applied
        db.close()
        recovered, report = DurableRelationalStore.recover(vfs)
        assert report.records_replayed == 1
        assert recovered.state_digest() == applied

    def test_checkpoint_inside_a_transaction_is_refused_typed(self):
        store = DurableXmlStore(SnapshotXmlDatabase(), MemVfs())
        with store.group():
            store.create_collection("c")
            with pytest.raises(WalError):
                store.checkpoint()
        assert store.checkpoint() is True

    @pytest.mark.parametrize("payload", [
        pickle.dumps(("create_collection", ("c",), {}), protocol=5),
        pickle.dumps(("add", ("c",), {}), protocol=5),
        pickle.dumps([("create_collection", ["c"], {})], protocol=5),
        b"not a pickle at all",
    ], ids=["old-format", "three-letter-op", "list-args", "garbage"])
    def test_payload_that_is_not_op_triples_is_corrupt_typed(
            self, payload):
        # The first is the pre-transaction record format, hand-framed:
        # it used to replay; now it must be refused typed, not with the
        # ValueError of unpacking an op name.
        vfs = MemVfs()
        log = WriteAheadLog(vfs)
        log.append(payload)
        log.close()
        with pytest.raises(WalCorrupt) as excinfo:
            DurableXmlStore.recover(vfs)
        assert "op triples" in str(excinfo.value)


class TestLockOrder:
    def test_writer_block_and_plain_op_do_not_deadlock(self):
        # A writer() block used to hold the inner store's lock and
        # want the op mutex per edit, while a plain op held the op
        # mutex and wanted the inner lock.
        vfs = MemVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        store.create_collection("c")
        store.insert("c", "d", "<doc><a>0</a><b>0</b></doc>")
        inside, racing = threading.Event(), threading.Event()

        def block():
            with store.writer():
                inside.set()
                racing.wait(5)
                time.sleep(0.05)  # let the plain op reach the store
                store.set_text("c", "d", "/doc/a", "A")

        def plain():
            inside.wait(5)
            racing.set()
            store.set_text("c", "d", "/doc/b", "B")

        threads = [threading.Thread(target=fn, daemon=True)
                   for fn in (block, plain)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads), (
            "writer() block and plain op deadlocked")
        assert (store.current().serialize("c", "d")
                == "<doc><a>A</a><b>B</b></doc>")
        texts = {decode_ops(lsn, payload)[0][1][-1]: lsn
                 for lsn, payload in scan_logs(
                     vfs, apply_truncation=False).records[2:]}
        assert texts["A"] < texts["B"]

    def test_concurrent_writer_blocks_stay_whole_and_recoverable(self):
        # More writers than cores, each block three edits of one
        # document, beside writers of stand-alone ops: blocks never
        # interleave (each record is one block, its three texts equal,
        # or one op), and the log replays to the live state.
        vfs = MemVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        store.create_collection("c")
        store.insert("c", "d", "<doc><a>0</a><b>0</b><c>0</c></doc>")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def writer(name):
                for n in range(40):
                    with store.writer():
                        for tag in "abc":
                            store.set_text("c", "d", f"/doc/{tag}",
                                           f"{name}-{n}")

            def single(name):
                for n in range(40):
                    store.set_text("c", "d", f"/doc/{'abc'[n % 3]}",
                                   f"{name}-{n}")

            threads = [threading.Thread(target=writer, args=(name,),
                                        daemon=True) for name in "wxyz"]
            threads += [threading.Thread(target=single, args=(name,),
                                         daemon=True) for name in "uv"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        live = store.state_digest()
        store.close()
        records = scan_logs(vfs, apply_truncation=False).records
        assert len(records) == 2 + 4 * 40 + 2 * 40
        for lsn, payload in records[2:]:
            ops = decode_ops(lsn, payload)
            texts = {args[-1] for _, args, _ in ops}
            assert len(texts) == 1
            assert len(ops) == (1 if texts.pop()[0] in "uv" else 3)
        recovered, _ = DurableXmlStore.recover(vfs)
        assert recovered.state_digest() == live
        recovered.close()

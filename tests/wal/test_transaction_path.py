"""The transaction is the unit of work: one path, entered once per block.

A ``writer()``/``group()`` block takes the store mutex and the inner
writer lock once and admits against the pipeline once; each op inside
it is the refuse-unpicklable check, one call into the snapshot store's
edit and one append to the transaction's op list.  The count test pins
that cost in Python calls (exact, unlike a timing); the contract tests
pin what the path must keep: record bytes, nesting, a second thread
waiting for the block, the applied prefix of a refused block, and one
epoch per ``writer()`` block.
"""

import sys
import threading

import pytest

from repro.core.errors import QueryError, WalError
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore, decode_ops
from repro.wal.format import encode_frame
from repro.wal.replay import recover as scan_logs
from repro.wal.vfs import MemVfs

RECORDS = "".join(f"<record><name>n{k}</name><dob>d{k}</dob></record>"
                  for k in range(1, 5))
DOCUMENT = f"<hospital>{RECORDS}</hospital>"
#: The e2e's write shape: eight position-qualified leaf edits.
EDITS = [(f"/hospital/record[{k}]/{field}", f"{field}-{k}-edited")
         for k in range(1, 5) for field in ("name", "dob")]

#: The record of one 8-edit ``writer()`` block: LSN 3, after the
#: collection and the insert.  Its bytes are the log format's, not the
#: transaction path's, so changing the path must not move them.
GOLDEN_LSN = 3
GOLDEN_PAYLOAD = (
    "800595c901000000000000288c087365745f7465787494288c0163948c016494"
    "8c182f686f73706974616c2f7265636f72645b315d2f6e616d65948c0d6e616d"
    "652d312d6564697465649474947d948794680028680168028c172f686f737069"
    "74616c2f7265636f72645b315d2f646f62948c0c646f622d312d656469746564"
    "9474947d948794680028680168028c182f686f73706974616c2f7265636f7264"
    "5b325d2f6e616d65948c0d6e616d652d322d6564697465649474947d94879468"
    "0028680168028c172f686f73706974616c2f7265636f72645b325d2f646f6294"
    "8c0c646f622d322d6564697465649474947d948794680028680168028c182f68"
    "6f73706974616c2f7265636f72645b335d2f6e616d65948c0d6e616d652d332d"
    "6564697465649474947d948794680028680168028c172f686f73706974616c2f"
    "7265636f72645b335d2f646f62948c0c646f622d332d6564697465649474947d"
    "948794680028680168028c182f686f73706974616c2f7265636f72645b345d2f"
    "6e616d65948c0d6e616d652d342d6564697465649474947d9487946800286801"
    "68028c172f686f73706974616c2f7265636f72645b345d2f646f62948c0c646f"
    "622d342d6564697465649474947d94879474942e")


def seeded_store():
    store = DurableXmlStore(SnapshotXmlDatabase(), MemVfs())
    store.create_collection("c")
    store.insert("c", "d", DOCUMENT)
    return store


def records(store):
    return scan_logs(store.vfs, apply_truncation=False).records


def calls_into_wal_and_snap(fn) -> int:
    """Python calls made into ``repro.wal`` and ``repro.snap`` by
    ``fn()`` (``sys.setprofile`` ``call`` events, so exact)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith(("repro.wal", "repro.snap")):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestCallsPerOp:
    """Parent: 20 calls per warm ``set_text`` (10 of them the edit)."""

    BOUND = 12

    @pytest.mark.parametrize("target", ["store", "yielded"])
    def test_warm_op_in_an_open_block(self, target):
        store = seeded_store()
        with store.writer() as yielded:
            on = store if target == "store" else yielded
            for path, text in EDITS:  # warm: paths parsed, indexes built
                on.set_text("c", "d", path, text)

            def edits():
                for path, text in EDITS:
                    on.set_text("c", "d", path, text + "!")

            calls = calls_into_wal_and_snap(edits)
        assert calls / len(EDITS) <= self.BOUND, (
            f"{calls / len(EDITS):.1f} calls per warm op")
        assert [text for _, (_, _, _, text), _ in decode_ops(
            *records(store)[-1])][-1] == EDITS[-1][1] + "!"


class TestTransactionContract:
    def test_record_bytes_are_golden(self):
        store = seeded_store()
        with store.writer() as writer:
            for path, text in EDITS:
                writer.set_text("c", "d", path, text)
        lsn, payload = records(store)[-1]
        assert (lsn, payload.hex()) == (GOLDEN_LSN, GOLDEN_PAYLOAD)
        (segment,) = store.vfs.listdir()
        assert store.vfs.read_bytes(segment).endswith(
            encode_frame(lsn, payload))

    def test_nested_blocks_join_the_outer_one(self):
        store = seeded_store()
        published = store.epochs.stats.published
        with store.writer():
            store.set_text("c", "d", *EDITS[0])
            with store.group():
                store.set_text("c", "d", *EDITS[1])
                with store.writer():
                    store.set_text("c", "d", *EDITS[2])
            # Nothing is visible to readers before the outer exit.
            assert "edited" not in store.current().serialize("c", "d")
        assert len(records(store)) == 3
        assert [args[2] for _, args, _ in decode_ops(
            *records(store)[-1])] == [path for path, _ in EDITS[:3]]
        assert store.epochs.stats.published == published + 1

    def test_writer_yields_the_store(self):
        # So an op on what writer() yields and an op on the store are
        # one path, and there is no separate handle to outlive the
        # block: after it, the store's ops are stand-alone transactions.
        store = seeded_store()
        with store.writer() as writer:
            assert writer is store
        store.set_text("c", "d", *EDITS[0])
        assert len(records(store)) == 3

    def test_second_thread_waits_for_the_block_and_logs_apart(self):
        store = seeded_store()
        inside, done = threading.Event(), threading.Event()
        seen_by_other = []

        def other():
            inside.wait(5)
            store.set_text("c", "d", EDITS[0][0], "other")
            done.set()

        thread = threading.Thread(target=other, daemon=True)
        thread.start()
        with store.writer():
            store.set_text("c", "d", *EDITS[0])
            inside.set()
            # The other thread's op must queue on the store mutex.
            seen_by_other.append(done.wait(0.2))
            store.set_text("c", "d", *EDITS[1])
        thread.join(timeout=5)
        assert seen_by_other == [False] and done.is_set()
        block, single = [decode_ops(*record)
                         for record in records(store)[2:]]
        assert [args[3] for _, args, _ in block] == [
            EDITS[0][1], EDITS[1][1]]
        assert [args[3] for _, args, _ in single] == ["other"]
        assert ">other<" in store.current().serialize("c", "d")

    @pytest.mark.parametrize("refusal", [
        "unpicklable", "missing-document", "missing-collection"])
    def test_refused_op_mid_block_logs_the_applied_prefix(self, refusal):
        store = seeded_store()
        bad = {
            "unpicklable": lambda: store.set_text(
                "c", "d", EDITS[2][0], lambda: "not loggable"),
            "missing-document": lambda: store.set_text(
                "c", "nowhere", *EDITS[2]),
            "missing-collection": lambda: store.set_text(
                "nowhere", "d", *EDITS[2]),
        }[refusal]
        error = WalError if refusal == "unpicklable" else QueryError
        with pytest.raises(error):
            with store.writer():
                store.set_text("c", "d", *EDITS[0])
                store.set_text("c", "d", *EDITS[1])
                bad()
                store.set_text("c", "d", *EDITS[3])  # never reached
        (ops,) = [decode_ops(*record) for record in records(store)[2:]]
        assert [args[2] for _, args, _ in ops] == [EDITS[0][0],
                                                    EDITS[1][0]]
        live = store.state_digest()
        store.close()
        recovered, _ = DurableXmlStore.recover(store.vfs)
        assert recovered.state_digest() == live

    @pytest.mark.parametrize("ending", ["sealed", "closed"])
    def test_refused_pipeline_applies_nothing(self, ending):
        store = seeded_store()
        if ending == "sealed":
            store.pipeline._sealed = WalError("device fault")
        else:
            store.pipeline.close()
        before = store.current().serialize("c", "d")
        with pytest.raises(WalError):
            with store.writer():
                store.set_text("c", "d", *EDITS[0])
        with pytest.raises(WalError):
            store.set_text("c", "d", *EDITS[0])
        assert store.current().serialize("c", "d") == before
        assert store.inner.freeze().serialize("c", "d") == before
        assert len(records(store)) == 2
        # The refused block left no open transaction behind.
        assert store.checkpoint() is True

    def test_one_epoch_per_writer_block(self):
        store = seeded_store()
        published = store.epochs.stats.published
        for _ in range(3):
            with store.writer():
                for path, text in EDITS:
                    store.set_text("c", "d", path, text)
        assert store.epochs.stats.published == published + 3
        # A stand-alone op is a transaction and an epoch of its own.
        store.set_text("c", "d", *EDITS[0])
        assert store.epochs.stats.published == published + 4
        assert len(records(store)) == 2 + 4

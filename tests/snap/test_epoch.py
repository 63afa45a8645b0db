"""Epoch lifecycle: publication, pinning, retirement, reclamation.

Satellite coverage for the lock-free read path's concurrency contract:
freeze-during-write isolation, a reader holding a retired epoch across a
writer burst (no reclamation until release), and double-release
detection.
"""

import pytest

from repro.core.errors import EpochRetired, SnapshotError
from repro.snap.epoch import EpochManager
from repro.snap.xmlstore import SnapshotXmlDatabase


class FakeSnapshot:
    def __init__(self, label, closes=None):
        self.label = label
        self.epoch = None
        self.closed = 0
        self.closes = closes        # shared log of close() order

    def close(self):
        self.closed += 1
        if self.closes is not None:
            self.closes.append(self.label)


class TestPublication:
    def test_epochs_are_monotonic(self):
        manager = EpochManager()
        first = manager.publish(FakeSnapshot("a"))
        second = manager.publish(FakeSnapshot("b"))
        assert (first.epoch, second.epoch) == (0, 1)
        assert manager.current() is second
        assert manager.current_epoch() == 1

    def test_current_before_any_publish_raises(self):
        manager = EpochManager()
        with pytest.raises(SnapshotError):
            manager.current()
        with pytest.raises(SnapshotError):
            manager.acquire()

    def test_publishing_none_is_rejected(self):
        with pytest.raises(SnapshotError):
            EpochManager().publish(None)

    def test_unpinned_superseded_epoch_reclaims_immediately(self):
        manager = EpochManager()
        old = manager.publish(FakeSnapshot("a"))
        manager.publish(FakeSnapshot("b"))
        assert manager.is_reclaimed(old.epoch)
        assert not manager.is_reclaimed(old.epoch + 1)     # current
        assert not manager.is_reclaimed(old.epoch + 2)     # unpublished
        assert manager.retired_epochs() == []
        assert old.closed == 1


class TestPinning:
    def test_reader_holding_retired_epoch_across_writer_burst(self):
        """The headline reclamation property: epoch N stays alive —
        uncounted writer publications later — until its last reader
        releases, and is reclaimed at exactly that moment."""
        manager = EpochManager()
        closes: list[str] = []
        manager.publish(FakeSnapshot("a", closes))
        pinned = manager.acquire()
        for label in "bcdefg":  # a burst of 6 writer publications
            manager.publish(FakeSnapshot(label, closes))
        assert manager.retired_epochs() == [pinned.epoch]
        assert not manager.is_reclaimed(pinned.epoch)
        assert pinned.closed == 0
        assert manager.pins(pinned.epoch) == 1

        manager.release(pinned)
        assert manager.is_reclaimed(pinned.epoch)
        assert manager.retired_epochs() == []
        assert pinned.closed == 1
        # Intermediate epochs b..f were never pinned: reclaimed at
        # publication time, before a's release.
        assert closes == ["b", "c", "d", "e", "f", "a"]

    def test_multiple_pins_require_all_releases(self):
        manager = EpochManager()
        manager.publish(FakeSnapshot("a"))
        first = manager.acquire()
        second = manager.acquire()
        assert first is second
        assert manager.pins(first.epoch) == 2
        manager.publish(FakeSnapshot("b"))
        manager.release(first)
        assert first.closed == 0  # one pin still out
        manager.release(second)
        assert first.closed == 1

    def test_releasing_current_epoch_does_not_reclaim_it(self):
        manager = EpochManager()
        manager.publish(FakeSnapshot("a"))
        pinned = manager.acquire()
        manager.release(pinned)
        assert not manager.is_reclaimed(pinned.epoch)
        assert manager.current() is pinned

    def test_double_release_raises(self):
        manager = EpochManager()
        manager.publish(FakeSnapshot("a"))
        pinned = manager.acquire()
        manager.release(pinned)
        with pytest.raises(EpochRetired):
            manager.release(pinned)

    def test_reading_context_manager_pins_and_releases(self):
        manager = EpochManager()
        snap = manager.publish(FakeSnapshot("a"))
        with manager.reading() as pinned:
            assert pinned is snap
            assert manager.pins(snap.epoch) == 1
        assert manager.pins(snap.epoch) == 0
        assert manager.stats.snapshot()["acquires"] == 1
        assert manager.stats.snapshot()["releases"] == 1

    def test_reading_releases_when_the_block_raises(self):
        manager = EpochManager()
        snap = manager.publish(FakeSnapshot("a"))
        with pytest.raises(KeyError):
            with manager.reading() as pinned:
                assert manager.pins(snap.epoch) == 1
                raise KeyError("reader failed")
        assert manager.pins(snap.epoch) == 0
        with pytest.raises(EpochRetired):      # already released
            manager.release(pinned)

    def test_reading_goes_through_overridden_acquire_and_release(self):
        calls = []

        class Traced(EpochManager):
            def acquire(self):
                calls.append("acquire")
                return super().acquire()

            def release(self, snapshot):
                calls.append("release")
                super().release(snapshot)

        manager = Traced()
        manager.publish(FakeSnapshot("a"))
        with manager.reading():
            assert calls == ["acquire"]
        assert calls == ["acquire", "release"]

    def test_close_runs_exactly_once(self):
        manager = EpochManager()
        old = manager.publish(FakeSnapshot("a"))
        pinned = manager.acquire()
        manager.publish(FakeSnapshot("b"))
        manager.release(pinned)
        manager.publish(FakeSnapshot("c"))
        assert old.closed == 1


class TestBoundedState:
    def test_ten_thousand_publishes_keep_only_live_epochs(self):
        manager = EpochManager()
        manager.publish(FakeSnapshot("first"))
        pinned = manager.acquire()
        for n in range(10_000):
            manager.publish(FakeSnapshot(n))
        # The current epoch and the one pinned reader: nothing else.
        sizes = {name: len(value) for name, value in vars(manager).items()
                 if isinstance(value, (dict, list, set))}
        assert max(sizes.values()) <= 2, sizes
        assert manager.stats.reclaimed == 9_999
        assert manager.is_reclaimed(5_000)
        manager.release(pinned)
        assert manager.is_reclaimed(pinned.epoch)
        assert manager.stats.reclaimed == 10_000


class TestFreezeDuringWrite:
    """Readers against a SnapshotXmlDatabase mid-write see only the
    last *published* epoch — a writer() block is atomic."""

    def setup_method(self):
        self.db = SnapshotXmlDatabase()
        self.db.create_collection("c")
        self.db.insert("c", "d1", "<doc><a>1</a><b>2</b></doc>")

    def test_reader_inside_writer_block_sees_pre_write_state(self):
        before = self.db.current().serialize("c", "d1")
        with self.db.epochs.reading() as pinned:
            with self.db.writer() as writer:
                writer.set_text("c", "d1", "/doc/a", "99")
                writer.set_text("c", "d1", "/doc/b", "98")
                # Mid-write: the pinned snapshot AND the current epoch
                # still serve the pre-write bytes.
                assert pinned.serialize("c", "d1") == before
                assert self.db.current().serialize("c", "d1") == before
            # Block exited: one new epoch carries both edits.
            assert pinned.serialize("c", "d1") == before
            assert self.db.current().serialize(
                "c", "d1") == "<doc><a>99</a><b>98</b></doc>"

    def test_writer_block_publishes_exactly_one_epoch(self):
        published = self.db.epochs.stats.published
        with self.db.writer() as writer:
            writer.set_text("c", "d1", "/doc/a", "x")
            writer.set_attribute("c", "d1", "/doc", "v", "2")
            writer.insert("c", "d2", "<doc2/>")
        assert self.db.epochs.stats.published == published + 1

    def test_nested_writer_blocks_defer_to_the_outermost(self):
        published = self.db.epochs.stats.published
        with self.db.writer() as writer:
            writer.set_text("c", "d1", "/doc/a", "x")
            with self.db.writer() as inner:
                inner.set_text("c", "d1", "/doc/b", "y")
            # Inner exit must not publish the half-done state.
            assert self.db.epochs.stats.published == published
        assert self.db.epochs.stats.published == published + 1
        assert self.db.current().serialize(
            "c", "d1") == "<doc><a>x</a><b>y</b></doc>"

    def test_pinned_epoch_survives_document_deletion(self):
        with self.db.epochs.reading() as pinned:
            self.db.delete("c", "d1")
            assert pinned.serialize(
                "c", "d1") == "<doc><a>1</a><b>2</b></doc>"
            assert self.db.current().doc_ids("c") == []


class TestRetainUntil:
    """Durability pins: checkpoint serialization vs reclamation."""

    def test_pin_keeps_epoch_alive_across_writer_burst(self):
        manager = EpochManager()
        pinned = manager.publish(FakeSnapshot("ckpt"))
        release = manager.retain_until(pinned, "digest-1")
        for n in range(5):
            manager.publish(FakeSnapshot(f"later-{n}"))
        # The pinned epoch is retired but NOT reclaimed: its close()
        # hook must not fire while a checkpoint serializes it.
        assert pinned.closed == 0
        assert manager.durable_pins() == {"digest-1": pinned.epoch}
        release()
        assert pinned.closed == 1
        assert manager.durable_pins() == {}

    def test_release_is_idempotent(self):
        manager = EpochManager()
        pinned = manager.publish(FakeSnapshot("ckpt"))
        release = manager.retain_until(pinned, "digest-1")
        manager.publish(FakeSnapshot("later"))
        release()
        release()  # the double release is absorbed, not miscounted
        assert pinned.closed == 1

    def test_pinning_a_reclaimed_epoch_raises(self):
        manager = EpochManager()
        stale = manager.publish(FakeSnapshot("stale"))
        manager.publish(FakeSnapshot("later"))  # stale reclaims now
        with pytest.raises(EpochRetired):
            manager.retain_until(stale, "digest-1")

    def test_pin_stacks_with_reader_pins(self):
        manager = EpochManager()
        pinned = manager.publish(FakeSnapshot("ckpt"))
        reader = manager.acquire()
        release = manager.retain_until(pinned, "digest-1")
        manager.publish(FakeSnapshot("later"))
        release()
        assert pinned.closed == 0  # the reader still holds it
        manager.release(reader)
        assert pinned.closed == 1

    def test_release_of_current_epoch_does_not_close_it(self):
        manager = EpochManager()
        current = manager.publish(FakeSnapshot("current"))
        release = manager.retain_until(current, "digest-1")
        release()
        assert current.closed == 0
        assert manager.current() is current

    def test_checkpoint_under_writer_churn_keeps_digest(self):
        # End to end: the DurableXmlStore checkpoint pins its captured
        # epoch, so concurrent publishes never dismantle it mid-pickle.
        from repro.wal.durable import DurableXmlStore
        from repro.wal.vfs import MemVfs
        vfs = MemVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        store.create_collection("c")
        store.insert("c", "d1", "<doc><a>1</a></doc>")
        assert store.checkpoint() is True
        assert store.inner.epochs.durable_pins() == {}  # pin released
        store.insert("c", "d2", "<doc><a>2</a></doc>")
        digest = store.state_digest()
        store.close()
        recovered, _ = DurableXmlStore.recover(vfs)
        assert recovered.state_digest() == digest

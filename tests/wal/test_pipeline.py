"""Segment chains and group commit: batching, lag bounds, fault seals."""

import sys
import threading
import time

import pytest

from repro.core.errors import DurabilityLagExceeded, WalError
from repro.faults.clock import FaultClock
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore
from repro.wal.log import WriteAheadLog
from repro.wal.pipeline import CommitPipeline
from repro.wal.replay import recover
from repro.wal.vfs import MemVfs


class SlowSyncVfs(MemVfs):
    """A device that has a cost: every ``sync()`` sleeps 1 ms.  Plain
    ``MemVfs`` syncs in no time, so a leader is done before any other
    thread runs and batching cannot be observed at all."""

    def create(self, name):
        handle = super().create(name)
        fast_sync = handle.sync

        def sync():
            time.sleep(0.001)
            fast_sync()

        handle.sync = sync
        return handle


def make_log(vfs=None, **kwargs):
    vfs = vfs if vfs is not None else MemVfs()
    return vfs, WriteAheadLog(vfs, **kwargs)


class TestWriteAheadLog:
    def test_append_scan_round_trip(self):
        vfs, log = make_log()
        for n in range(5):
            log.append(f"op-{n}".encode())
        log.sync()
        scan = recover(vfs)
        assert [payload for _, payload in scan.records] == [
            b"op-0", b"op-1", b"op-2", b"op-3", b"op-4"]

    def test_rotation_seals_previous_segment_durably(self):
        vfs, log = make_log(segment_bytes=128)
        for n in range(10):
            log.append(b"x" * 40)
        # Every sealed (rotated-away) segment was synced before the
        # next opened, so only the final segment can have pending bytes.
        names = vfs.listdir()
        assert len(names) > 1
        for name in names[:-1]:
            assert vfs.durable_size(name) == vfs.size(name)

    def test_lsn_going_backwards_is_refused(self):
        _, log = make_log()
        log.append(b"x", lsn=7)
        with pytest.raises(WalError):
            log.append(b"y", lsn=7)

    def test_reopen_never_appends_to_existing_segments(self):
        vfs, log = make_log()
        log.append(b"x")
        log.close()
        _, second = make_log(vfs, start_lsn=log.last_lsn)
        second.append(b"y")
        second.close()
        assert len(vfs.listdir()) == 2

    def test_truncate_until_removes_only_covered_prefix(self):
        vfs, log = make_log(segment_bytes=64)
        lsns = [log.append(b"p" * 30) for _ in range(8)]
        log.sync()
        removed = log.truncate_until(lsns[3])
        assert removed >= 1
        scan = recover(vfs)
        survivors = [lsn for lsn, _ in scan.records]
        # Everything past the checkpoint LSN must survive the trim.
        assert [lsn for lsn in lsns if lsn > lsns[3]] == [
            lsn for lsn in survivors if lsn > lsns[3]]


class TestGroupCommit:
    def test_one_sync_covers_the_whole_batch(self):
        vfs, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False)
        tickets = [pipeline.submit(f"op-{n}".encode()) for n in range(32)]
        assert log.stats.syncs == 0
        assert pipeline.flush() == 32
        assert log.stats.syncs == 1
        assert all(ticket.synced for ticket in tickets)
        stats = pipeline.stats_snapshot()
        assert stats["batches"] == 1
        assert stats["records_flushed"] == 32

    def test_submit_order_is_lsn_order_is_file_order(self):
        vfs, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False)
        tickets = [pipeline.submit(f"op-{n}".encode()) for n in range(10)]
        pipeline.flush()
        scan = recover(vfs)
        assert [lsn for lsn, _ in scan.records] == [
            ticket.lsn for ticket in tickets]

    def test_lag_bound_throws_typed_backpressure_at_submit(self):
        _, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False, max_lag=3)
        for n in range(3):
            pipeline.submit(b"x")
        with pytest.raises(DurabilityLagExceeded) as excinfo:
            pipeline.submit(b"one too many")
        assert excinfo.value.lag == 3
        assert excinfo.value.limit == 3
        pipeline.flush()
        pipeline.submit(b"fits again")

    def test_concurrent_writers_share_fsync_batches(self):
        # Judged on a device with a cost.  Followers wake together, so
        # their next records share the next leader's batch; woken one
        # at a time (the convoy) they would sync ~400 batches of one.
        vfs, log = make_log(SlowSyncVfs())
        pipeline = CommitPipeline(log, max_batch=64)
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            for _ in range(50):
                pipeline.submit(b"payload").wait(timeout=5)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pipeline.close()
        stats = pipeline.stats_snapshot()
        assert stats["records_flushed"] == 400
        assert stats["mean_batch"] >= 6
        assert stats["syncs"] <= 80
        lsns = [lsn for lsn, _ in recover(vfs).records]
        assert len(lsns) == 400 and lsns == sorted(lsns)

    def test_committers_racing_for_the_lead_lose_nothing(self):
        # More committers than cores on a zero-latency device, with
        # the interpreter switching threads every 10 us: whoever leads,
        # every record is written once, in LSN order, and every waiter
        # is released.
        vfs, log = make_log()
        pipeline = CommitPipeline(log, max_batch=4)
        lsns: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def writer():
                for _ in range(100):
                    lsns.append(pipeline.submit(b"x").wait(timeout=10))

            threads = [threading.Thread(target=writer, daemon=True)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert pipeline.lag == 0
        stats = pipeline.stats_snapshot()
        assert stats["records_flushed"] == 800 and not stats["sealed"]
        assert [lsn for lsn, _ in recover(vfs).records] == sorted(
            lsns) == list(range(1, 801))

    def test_a_solo_writer_never_waits_for_company(self):
        # The linger rule reads traffic, not a parameter: no batch ever
        # carried a second record, so no leader ever lingers (counted
        # in calls, not time) whatever max_batch allows.
        _, log = make_log(SlowSyncVfs())
        pipeline = CommitPipeline(log, max_batch=256)
        lingers = []
        pipeline._linger = lambda: lingers.append(1) or 0.0
        for _ in range(40):
            pipeline.submit(b"payload").wait(timeout=5)
        stats = pipeline.stats_snapshot()
        assert stats["syncs"] == 40
        assert stats["mean_batch"] == 1.0
        assert lingers == []

    def test_only_auto_flush_starts_a_flusher_thread(self):
        _, log = make_log()
        assert CommitPipeline(log)._flusher is None
        pipeline = CommitPipeline(log, auto_flush=True)
        ticket = pipeline.submit(b"nobody waits on this")
        deadline = time.monotonic() + 5
        while not ticket.synced and time.monotonic() < deadline:
            time.sleep(0.001)
        assert ticket.synced
        pipeline.close()
        assert not pipeline._flusher.is_alive()

    def test_device_fault_fails_every_ticket_and_seals(self):
        plan = FaultPlan()
        plan.add("wal", 0, FaultKind.CRASH)
        injector = FaultInjector(plan, FaultClock())
        _, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False,
                                  injector=injector)
        tickets = [pipeline.submit(b"x") for _ in range(4)]
        pipeline.flush()
        for ticket in tickets:
            with pytest.raises(WalError):
                ticket.wait(timeout=1)
        # Sealed: a log whose tail failed must not accept later appends.
        with pytest.raises(WalError) as excinfo:
            pipeline.submit(b"after the fault")
        assert "sealed" in str(excinfo.value)

    def test_nothing_is_acked_before_its_fsync(self):
        _, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False)
        ticket = pipeline.submit(b"x")
        assert not ticket.synced
        pipeline.flush()
        assert ticket.synced

    def test_concurrent_flushes_never_drop_a_batch(self):
        # Unserialized flushers take disjoint batches and race to
        # append them; a later-LSN batch landing first turns the
        # earlier one into applied-but-unlogged records and strands
        # its tickets.
        vfs, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False, max_batch=4)
        tickets = [pipeline.submit(f"op-{n}".encode()) for n in range(64)]
        errors = []

        def drain():
            try:
                while pipeline.flush():
                    pass
            except WalError as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=drain) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for ticket in tickets:
            ticket.wait(timeout=5)
        assert [lsn for lsn, _ in recover(vfs).records] == [
            ticket.lsn for ticket in tickets]

    def test_failed_flush_resolves_its_taken_batch_typed(self):
        # A flush that dies after taking its batch must fail those
        # tickets — leaving them unresolved hangs their waiters.
        _, log = make_log()
        pipeline = CommitPipeline(log, auto_flush=False)
        ticket = pipeline.submit(b"x")
        log.append(b"interloper", lsn=ticket.lsn + 100)
        with pytest.raises(WalError):
            pipeline.flush()
        with pytest.raises(WalError) as excinfo:
            ticket.wait(timeout=1)
        assert "timed out" not in str(excinfo.value)
        assert pipeline.stats_snapshot()["sealed"] is True


    def test_sealing_fails_the_whole_queue_and_leaves_nothing_flushable(
            self):
        # A batch refused by the device seals the log.  Records queued
        # behind it must fail with it: left queued, a later flush made
        # LSNs 3-4 durable behind the lost 1-2 — a log with a hole
        # under applied state.
        plan = FaultPlan()
        plan.add("wal", 0, FaultKind.CRASH)
        vfs, log = make_log()
        pipeline = CommitPipeline(
            log, auto_flush=False, max_batch=2,
            injector=FaultInjector(plan, FaultClock()))
        tickets = [pipeline.submit(f"op-{n}".encode()) for n in range(4)]
        pipeline.flush()
        for ticket in tickets:
            with pytest.raises(WalError) as excinfo:
                ticket.wait(timeout=1)
            assert "device fault" in str(excinfo.value)
        assert pipeline.lag == 0
        assert pipeline.flush() == 0
        assert recover(vfs).records == []


class TestStoreBatching:
    def test_writers_on_eight_collections_share_the_sync(self):
        # One log: writers on eight collections share a batch.  Split
        # over four logs by collection, mean batch was ~2.0 (610 syncs).
        vfs = SlowSyncVfs()
        store = DurableXmlStore(SnapshotXmlDatabase(), vfs)
        with store.group():
            for n in range(8):
                store.create_collection(f"c{n}")

        def writer(name):
            for n in range(150):
                store.insert(name, f"d{n}", "<doc/>")

        threads = [threading.Thread(target=writer, args=(f"c{n}",))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        live = store.state_digest()
        store.close()
        assert store.pipeline.stats.records_flushed == 1 + 8 * 150
        assert store.pipeline.stats_snapshot()["mean_batch"] >= 4
        assert DurableXmlStore.recover(vfs)[0].state_digest() == live

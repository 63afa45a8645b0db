"""Recovery scans: order, contiguity, torn tails."""

import pytest

from repro.core.errors import WalCorrupt, WalError
from repro.wal.format import HEADER_SIZE, segment_name
from repro.wal.log import WriteAheadLog
from repro.wal.replay import recover
from repro.wal.vfs import MemVfs


def build_wal(vfs, records=12, segment_bytes=256):
    wal = WriteAheadLog(vfs, segment_bytes=segment_bytes)
    lsns = [wal.append(f"op-{n}".encode()) for n in range(records)]
    wal.close()
    return wal, lsns


class TestScan:
    def test_from_lsn_skips_the_checkpointed_prefix(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs)
        result = recover(vfs, from_lsn=lsns[5])
        assert [lsn for lsn, _ in result.records] == lsns[6:]

    def test_checkpoint_at_ninety_percent_cuts_replay_fivefold(self):
        # A multi-segment log, its sealed prefix truncated up to a
        # checkpoint at 90%: the suffix scan replays and reads at least
        # 5x less than the full scan (10.1x records, 8.5x bytes here).
        vfs = MemVfs()
        payload = b"{'op': 'insert', 'collection': 'orders'}" * 2
        wal = WriteAheadLog(vfs, segment_bytes=8 * 1024)
        lsns = [wal.append(payload) for _ in range(2_000)]
        wal.close()
        full = recover(vfs)
        assert [lsn for lsn, _ in full.records] == lsns
        assert full.segments >= 20
        checkpoint = lsns[1_800]
        assert wal.truncate_until(checkpoint) >= 1
        suffix = recover(vfs, from_lsn=checkpoint)
        assert [lsn for lsn, _ in suffix.records] == lsns[1_801:]
        assert len(full.records) >= 5 * len(suffix.records)
        assert full.bytes_scanned >= 5 * suffix.bytes_scanned


class TestDamage:
    def test_missing_interior_segment_is_corrupt(self):
        vfs = MemVfs()
        build_wal(vfs, records=10, segment_bytes=64)
        names = [n for n in vfs.listdir() if n.startswith("seg-000-")]
        assert len(names) >= 3
        vfs.delete(names[1])
        with pytest.raises(WalCorrupt) as excinfo:
            recover(vfs)
        assert "missing segment" in str(excinfo.value)

    def test_torn_tail_is_truncated_fail_closed(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs, records=4, segment_bytes=1 << 20)
        name = segment_name(0)
        vfs.truncate(name, vfs.size(name) - 3)
        with pytest.raises(WalError, match="torn tail"):
            WriteAheadLog(vfs, start_lsn=lsns[-1])  # recover() first
        result = recover(vfs)
        assert [lsn for lsn, _ in result.records] == lsns[:3]
        assert result.truncated == [(name, vfs.size(name))]
        # Truncation applied: a second scan is clean.
        assert not recover(vfs).truncated

    def test_torn_header_tail_is_deleted_not_left_empty(self):
        # Truncating the mid-header tail to zero bytes would leave an
        # empty file that sits mid-chain once post-recovery segments
        # append behind it, failing every later recovery.
        vfs = MemVfs()
        _, lsns = build_wal(vfs, records=4, segment_bytes=1 << 20)
        tail = segment_name(1)
        handle = vfs.create(tail)
        handle.write(b"RWAL\x00")  # crash mid-header, nothing synced
        handle.close()
        with pytest.raises(WalError, match="torn mid-header"):
            WriteAheadLog(vfs, start_lsn=lsns[-1])  # recover() first
        result = recover(vfs)
        assert [lsn for lsn, _ in result.records] == lsns
        assert result.truncated == [(tail, 0)]
        assert not vfs.exists(tail)
        wal = WriteAheadLog(vfs, start_lsn=result.last_lsn)
        extra = wal.append(b"post-recovery")
        wal.close()
        assert [lsn for lsn, _ in recover(vfs).records] == lsns + [extra]

    def test_short_interior_segment_is_corrupt(self):
        vfs = MemVfs()
        build_wal(vfs, records=4, segment_bytes=1 << 20)
        vfs.truncate(segment_name(0), HEADER_SIZE - 4)
        hole = vfs.create(segment_name(1))
        hole.write(b"RWAL")
        hole.close()
        with pytest.raises(WalCorrupt):
            recover(vfs)

    def test_corrupt_interior_frame_is_typed_not_truncated(self):
        vfs = MemVfs()
        build_wal(vfs, records=6, segment_bytes=1 << 20)
        vfs.corrupt_byte(segment_name(0), HEADER_SIZE + 8)
        with pytest.raises(WalCorrupt):
            recover(vfs)


class TestMemVfsSize:
    def test_size_is_the_length_of_the_image_through_its_life(self):
        # recover() sizes every segment before mapping it, so size()
        # must agree with the bytes a read sees at every step.
        vfs = MemVfs()
        handle = vfs.create("f")

        def same():
            assert vfs.size("f") == len(vfs.read_bytes("f"))

        same()
        handle.write(b"durable-")
        same()
        handle.sync()
        handle.write(b"pending-tail")
        same()
        vfs.crash(keep_partial={"f": 4})
        same()
        assert vfs.read_bytes("f") == b"durable-pend"
        handle.write(b"more")
        vfs.crash()
        same()
        handle.write(b"xyz")
        vfs.truncate("f", 10)
        same()
        assert vfs.size("f") == 10

"""Recovery scans: merge order, contiguity, torn tails."""

import pytest

from repro.core.errors import WalCorrupt
from repro.wal.format import HEADER_SIZE, segment_name
from repro.wal.log import ShardedWal
from repro.wal.replay import recover, scan_shard
from repro.wal.vfs import MemVfs


def build_wal(vfs, shards=2, records=12, segment_bytes=256):
    wal = ShardedWal(vfs, shards, segment_bytes=segment_bytes)
    lsns = []
    for n in range(records):
        lsns.append(wal.logs[n % shards].append(f"op-{n}".encode()))
    wal.close()
    return wal, lsns


class TestMerge:
    def test_cross_shard_merge_is_lsn_ordered(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs)
        result = recover(vfs, 2)
        assert [lsn for lsn, _ in result.records] == lsns
        assert [payload for _, payload in result.records] == [
            f"op-{n}".encode() for n in range(12)]

    def test_from_lsn_skips_the_checkpointed_prefix(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs)
        result = recover(vfs, 2, from_lsn=lsns[5])
        assert [lsn for lsn, _ in result.records] == lsns[6:]

    def test_duplicate_lsn_across_shards_is_corrupt(self):
        vfs = MemVfs()
        wal = ShardedWal(vfs, 2)
        wal.logs[0].append(b"a", lsn=7)
        wal.logs[1].append(b"b", lsn=7)
        wal.close()
        with pytest.raises(WalCorrupt) as excinfo:
            recover(vfs, 2)
        assert "two shards" in str(excinfo.value)


class TestDamage:
    def test_missing_interior_segment_is_corrupt(self):
        vfs = MemVfs()
        build_wal(vfs, shards=1, records=10, segment_bytes=64)
        names = [n for n in vfs.listdir() if n.startswith("seg-000-")]
        assert len(names) >= 3
        vfs.delete(names[1])
        with pytest.raises(WalCorrupt) as excinfo:
            scan_shard(vfs, 0)
        assert "missing segment" in str(excinfo.value)

    def test_torn_tail_is_truncated_fail_closed(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs, shards=1, records=4,
                            segment_bytes=1 << 20)
        name = segment_name(0, 0)
        vfs.truncate(name, vfs.size(name) - 3)
        result = recover(vfs, 1)
        assert [lsn for lsn, _ in result.records] == lsns[:3]
        assert result.truncated == [(name, vfs.size(name))]
        # Truncation applied: a second scan is clean.
        assert not recover(vfs, 1).truncated

    def test_torn_header_of_final_segment_is_truncated(self):
        vfs = MemVfs()
        _, lsns = build_wal(vfs, shards=1, records=4,
                            segment_bytes=1 << 20)
        tail = segment_name(0, 1)
        handle = vfs.create(tail)
        handle.write(b"RWAL\x00")  # crash mid-header, nothing synced
        handle.close()
        result = recover(vfs, 1)
        assert [lsn for lsn, _ in result.records] == lsns
        assert result.truncated == [(tail, 0)]

    def test_torn_header_tail_is_deleted_not_left_empty(self):
        # Truncating the mid-header tail to zero bytes would leave an
        # empty file that sits mid-chain once post-recovery segments
        # append behind it, failing every later recovery.
        vfs = MemVfs()
        _, lsns = build_wal(vfs, shards=1, records=4,
                            segment_bytes=1 << 20)
        tail = segment_name(0, 1)
        handle = vfs.create(tail)
        handle.write(b"RWAL\x00")
        handle.close()
        result = recover(vfs, 1)
        assert not vfs.exists(tail)
        wal = ShardedWal(vfs, 1, start_lsn=result.last_lsn)
        extra = wal.logs[0].append(b"post-recovery")
        wal.close()
        assert [lsn for lsn, _ in recover(vfs, 1).records] == (
            lsns + [extra])

    def test_short_interior_segment_is_corrupt(self):
        vfs = MemVfs()
        build_wal(vfs, shards=1, records=4, segment_bytes=1 << 20)
        vfs.truncate(segment_name(0, 0), HEADER_SIZE - 4)
        hole = vfs.create(segment_name(0, 1))
        hole.write(b"RWAL")
        hole.close()
        with pytest.raises(WalCorrupt):
            scan_shard(vfs, 0)

    def test_corrupt_interior_frame_is_typed_not_truncated(self):
        vfs = MemVfs()
        build_wal(vfs, shards=1, records=6, segment_bytes=1 << 20)
        vfs.corrupt_byte(segment_name(0, 0), HEADER_SIZE + 8)
        with pytest.raises(WalCorrupt):
            recover(vfs, 1)

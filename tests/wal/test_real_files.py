"""Checkpoint, log truncation and torn-tail repair on real files.

The chaos batteries run these paths on the in-memory power-loss model;
this round trip runs them through :class:`OsVfs`: a checkpoint is
written (temp file, sync, rename) and read back, the sealed log prefix
it covers is deleted, and a frame torn mid-write is cut off the last
segment at recovery.
"""

from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore, encode_ops
from repro.wal.format import encode_frame
from repro.wal.vfs import OsVfs


def segments(vfs):
    return [name for name in vfs.listdir() if name.startswith("seg-")]


def insert(store, n):
    store.insert("c", f"d{n:03d}", f'<doc n="{n}"><v>value-{n}</v></doc>')


def test_checkpoint_truncate_and_torn_tail_round_trip(tmp_path):
    vfs = OsVfs(tmp_path)
    store = DurableXmlStore(SnapshotXmlDatabase(), vfs,
                            durability="fsync", segment_bytes=512)
    store.create_collection("c")
    for n in range(12):
        insert(store, n)
    before = segments(vfs)
    assert len(before) >= 3
    assert store.checkpoint() is True
    # The sealed segments the checkpoint covers are gone from disk.
    assert before[0] not in segments(vfs)
    for n in range(12, 18):
        insert(store, n)
    live = store.state_digest()
    last_lsn = store.wal.last_lsn
    store.close()

    tail = segments(vfs)[-1]
    whole = vfs.size(tail)
    frame = encode_frame(
        last_lsn + 1,
        encode_ops([("insert", ("c", "torn", "<torn/>"), {})]))
    with open(tmp_path / tail, "ab") as handle:
        handle.write(frame[:len(frame) // 2])

    recovered, report = DurableXmlStore.recover(OsVfs(tmp_path))
    try:
        assert report.checkpoint_lsn > 0
        assert report.records_replayed == 6
        assert report.truncated == [(tail, whole)]
        assert (tmp_path / tail).stat().st_size == whole
        assert recovered.state_digest() == live
        assert "torn" not in recovered.current().doc_ids("c")
    finally:
        recovered.close()

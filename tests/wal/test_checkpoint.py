"""Checkpoint files: atomicity, digest-keyed skips, fail-closed reads."""

import pytest

from repro.core.errors import WalCorrupt
from repro.wal.checkpoint import (
    CheckpointStore,
    checkpoint_name,
    decode_checkpoint,
    encode_checkpoint,
    parse_checkpoint_name,
)
from repro.wal.vfs import MemVfs

#: ``encode_checkpoint(7, "d1g3st", b"payload")``, as written when
#: checkpoints could also be checksummed with CRC-32C; and the same
#: checkpoint as written with that retired algorithm (id 0x43).
GOLDEN = bytes.fromhex(
    "52434b5000015a0000000000000000070000000664316733737400000007"
    "7061796c6f61643b904a40")
RETIRED_CRC32C = bytes.fromhex(
    "52434b500001430000000000000000070000000664316733737400000007"
    "7061796c6f61644f739aa1")


class TestEncoding:
    def test_round_trip(self):
        data = encode_checkpoint(42, "digest-abc", b"payload")
        assert decode_checkpoint(data) == (42, "digest-abc", b"payload")

    def test_any_flipped_byte_is_refused(self):
        data = bytearray(encode_checkpoint(42, "digest-abc", b"payload"))
        for offset in range(len(data)):
            damaged = bytearray(data)
            damaged[offset] ^= 0xFF
            with pytest.raises(WalCorrupt):
                decode_checkpoint(bytes(damaged))

    def test_bytes_are_the_golden_checkpoint(self):
        assert encode_checkpoint(7, "d1g3st", b"payload") == GOLDEN
        assert decode_checkpoint(GOLDEN) == (7, "d1g3st", b"payload")

    def test_the_retired_crc32c_id_is_refused_typed(self):
        with pytest.raises(WalCorrupt, match="algorithm id 0x43"):
            decode_checkpoint(RETIRED_CRC32C)

    def test_truncated_file_is_refused(self):
        data = encode_checkpoint(42, "digest-abc", b"payload")
        with pytest.raises(WalCorrupt):
            decode_checkpoint(data[:10])

    def test_name_round_trip(self):
        assert parse_checkpoint_name(checkpoint_name(7)) == 7
        assert parse_checkpoint_name("ckpt-abc.rckp") is None


class TestStore:
    def test_latest_returns_newest(self):
        store = CheckpointStore(MemVfs())
        assert store.latest() is None
        store.write(5, "d5", b"five")
        store.write(9, "d9", b"nine")
        assert store.latest() == (9, "d9", b"nine")

    def test_unchanged_digest_skips_the_write(self):
        store = CheckpointStore(MemVfs())
        assert store.write(5, "same", b"five") is True
        assert store.write(9, "same", b"nine") is False
        assert store.latest()[0] == 5
        assert (store.written, store.skipped) == (1, 1)

    def test_write_is_atomic_under_power_loss(self):
        vfs = MemVfs()
        store = CheckpointStore(vfs)
        store.write(5, "d5", b"five")
        store.write(9, "d9", b"nine" * 100)
        # The rename only ever exposes fully-synced bytes: power loss
        # right after the write leaves both checkpoints intact.
        vfs.crash()
        assert CheckpointStore(vfs).latest() == (9, "d9", b"nine" * 100)

    def test_corrupt_newest_fails_closed(self):
        vfs = MemVfs()
        store = CheckpointStore(vfs)
        store.write(5, "d5", b"five")
        store.write(9, "d9", b"nine")
        vfs.corrupt_byte(checkpoint_name(9), 30)
        # No silent fallback to checkpoint 5: it may cover truncated
        # log, so replaying from it could land in a hole.
        with pytest.raises(WalCorrupt):
            CheckpointStore(vfs).latest()

    def test_prune_keeps_the_newest(self):
        vfs = MemVfs()
        store = CheckpointStore(vfs)
        for lsn in (1, 2, 3):
            store.write(lsn, f"d{lsn}", b"x")
        assert store.prune(keep=1) == 2
        assert store.latest()[0] == 3

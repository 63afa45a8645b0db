"""Incremental checkpoints: bounded recovery for an unbounded log.

A checkpoint is one file holding a serialized store snapshot, the LSN
it covers, and the store's state digest at that LSN.  Recovery loads
the newest valid checkpoint and replays only the log suffix past its
LSN; the log prefix it covers is truncated, so recovery work is
bounded by the checkpoint interval rather than by history length.

Checkpoints are *incremental* in the digest-keyed sense: a store's
snapshot digest (Merkle root, compiled-policy digest, relational state
hash) names its content, so writing a checkpoint whose digest equals
the newest one on disk is skipped entirely — an idle store checkpoints
for free.  Writes are atomic — serialize to a temp name, sync, rename
over (the vfs fsyncs the directory entry) — so a crash mid-checkpoint
leaves the previous checkpoint untouched, never a half file under the
real name.

File layout (``ckpt-LLLLLLLLLLLLLLLL.rckp``)::

    !4s  magic b"RCKP"
    !H   version (1)
    !B   checksum algorithm id (0x5A, CRC-32, as in a segment header)
    !B   reserved
    !Q   checkpoint LSN
    !I   digest length | digest bytes (utf-8)
    !I   payload length | payload bytes (pickled snapshot)
    !I   checksum over everything above
"""

from __future__ import annotations

import struct
import zlib

from repro.core.errors import WalCorrupt
from repro.wal.format import CRC32_ID, check_algorithm

MAGIC = b"RCKP"
FORMAT_VERSION = 1

_HEAD = struct.Struct("!4sHBBQ")
_LEN = struct.Struct("!I")


def checkpoint_name(lsn: int) -> str:
    return f"ckpt-{lsn:016d}.rckp"


def parse_checkpoint_name(name: str) -> int | None:
    if not (name.startswith("ckpt-") and name.endswith(".rckp")):
        return None
    digits = name[5:-5]
    return int(digits) if digits.isdigit() else None


def encode_checkpoint(lsn: int, digest: str, payload: bytes) -> bytes:
    digest_bytes = digest.encode("utf-8")
    body = (_HEAD.pack(MAGIC, FORMAT_VERSION, CRC32_ID, 0, lsn)
            + _LEN.pack(len(digest_bytes)) + digest_bytes
            + _LEN.pack(len(payload)) + payload)
    return body + _LEN.pack(zlib.crc32(body))


def decode_checkpoint(data: bytes, name: str = "?") -> tuple[int, str, bytes]:
    """(lsn, digest, payload); raises WalCorrupt on any damage."""
    if len(data) < _HEAD.size + 3 * _LEN.size:
        raise WalCorrupt("checkpoint file truncated", segment=name)
    magic, version, alg_id, _, lsn = _HEAD.unpack_from(data, 0)
    if magic != MAGIC:
        raise WalCorrupt(f"bad checkpoint magic {bytes(magic)!r}",
                         segment=name)
    if version != FORMAT_VERSION:
        raise WalCorrupt(f"unsupported checkpoint version {version}",
                         segment=name)
    check_algorithm(alg_id, name)
    body, stored_raw = data[:-_LEN.size], data[-_LEN.size:]
    (stored,) = _LEN.unpack(stored_raw)
    if zlib.crc32(body) != stored:
        raise WalCorrupt("checkpoint failed its checksum", segment=name)
    offset = _HEAD.size
    (digest_len,) = _LEN.unpack_from(body, offset)
    offset += _LEN.size
    digest = body[offset:offset + digest_len].decode("utf-8")
    offset += digest_len
    (payload_len,) = _LEN.unpack_from(body, offset)
    offset += _LEN.size
    payload = body[offset:offset + payload_len]
    if len(payload) != payload_len:
        raise WalCorrupt("checkpoint payload truncated", segment=name)
    return lsn, digest, bytes(payload)


class CheckpointStore:
    """Atomic, digest-keyed checkpoint files in one vfs directory."""

    def __init__(self, vfs) -> None:
        self.vfs = vfs
        self.written = 0
        self.skipped = 0

    def _names(self) -> list[tuple[int, str]]:
        found = [(lsn, name) for name in self.vfs.listdir()
                 if (lsn := parse_checkpoint_name(name)) is not None]
        return sorted(found)

    def latest_lsn(self) -> int:
        """The newest checkpoint's LSN, by file name (0 when none)."""
        return max((lsn for lsn, _ in self._names()), default=0)

    def latest_digest(self) -> str | None:
        names = self._names()
        if not names:
            return None
        try:
            _, digest, _ = decode_checkpoint(
                self.vfs.read_bytes(names[-1][1]), names[-1][1])
        except WalCorrupt:
            return None
        return digest

    def write(self, lsn: int, digest: str, payload: bytes) -> bool:
        """Persist a checkpoint; returns False when skipped because the
        newest checkpoint already carries this digest (nothing changed
        since — the incremental fast path)."""
        if self.latest_digest() == digest:
            self.skipped += 1
            return False
        name = checkpoint_name(lsn)
        temp = name + ".tmp"
        if self.vfs.exists(temp):
            self.vfs.delete(temp)
        handle = self.vfs.create(temp)
        handle.write(encode_checkpoint(lsn, digest, payload))
        handle.sync()
        handle.close()
        self.vfs.rename(temp, name)
        self.written += 1
        return True

    def latest(self) -> tuple[int, str, bytes] | None:
        """The newest checkpoint, fully verified.

        A corrupt *newest* checkpoint raises :class:`WalCorrupt` — it
        may cover truncated log, so silently falling back to an older
        one (or none) could replay into a hole.  Fail closed and let
        the operator decide.
        """
        names = self._names()
        if not names:
            return None
        lsn, name = names[-1]
        decoded = decode_checkpoint(self.vfs.read_bytes(name), name)
        if decoded[0] != lsn:
            raise WalCorrupt(
                f"checkpoint {name} claims LSN {decoded[0]}, file name "
                f"says {lsn}", segment=name)
        return decoded

    def prune(self, keep: int = 1) -> int:
        """Delete all but the newest *keep* checkpoints."""
        names = self._names()
        removed = 0
        for _, name in names[:-keep] if keep else names:
            self.vfs.delete(name)
            removed += 1
        return removed

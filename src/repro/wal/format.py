"""On-disk format of the write-ahead log.

Segment file (``seg-000-IIIIIIII.wal``, sequence ``IIIIIIII``)::

    header (24 bytes):
        !4s  magic  b"RWAL"
        !H   format version (1)
        !B   checksum algorithm id (0x5A, CRC-32; nothing else is read)
        !B   reserved (0)
        !I   log number (always 0)
        !Q   base LSN (last LSN allocated before this segment opened;
             diagnostic — recovery trusts the frames, not the header)
        !I   checksum over the 20 bytes above
    frame (repeated)::
        !I   body length (9 + payload length)
        !I   checksum over body
        body:
            !Q  LSN (strictly increasing along the chain)
            !B  record type (1 = RECORD)
            payload bytes

A store has one log.  The ``000`` and the log number are kept from a
layout that split a store over several chains; any other number, in a
name or a header, is :class:`~repro.core.errors.WalCorrupt`, so such a
directory fails closed rather than recover without a chain.

The frame layer is payload-agnostic.  The durable stores
(:mod:`repro.wal.durable`) put **one transaction per record**: the
payload is one pickle of the sequence of ``(op, args, kwargs)`` triples
the transaction applied, in apply order (``encode_ops`` /
``decode_ops``) — a stand-alone op is a sequence of one.  Because a
frame's checksum covers its whole body, a transaction is durable as a
whole or is a torn tail as a whole.

Torn tail vs corruption — the call recovery has to get right:

* A **torn tail** is the legitimate artifact of a crash between write
  and fsync: a partial or checksum-invalid frame at the very end of the
  *last* segment with **no valid frame after it**.  The log is
  truncated at the last valid frame (fail closed: those bytes were
  never acknowledged).
* Everything else — an invalid frame *followed by* a recoverable valid
  frame (found by bounded forward resync), damage in a non-final
  segment, an LSN running backwards — is **corruption** of data that
  may have been acknowledged, and raises
  :class:`~repro.core.errors.WalCorrupt` instead of silently dropping
  records.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.core.errors import WalCorrupt

MAGIC = b"RWAL"
FORMAT_VERSION = 1
#: The checksum id byte of every segment header and checkpoint:
#: CRC-32 (:func:`zlib.crc32`).  Any other id, the retired CRC-32C's
#: ``0x43`` included, is :class:`WalCorrupt`.
CRC32_ID = 0x5A

_HEADER = struct.Struct("!4sHBBIQ")
_HEADER_CRC = struct.Struct("!I")
HEADER_SIZE = _HEADER.size + _HEADER_CRC.size  # 24

_FRAME_HEAD = struct.Struct("!II")
_BODY_HEAD = struct.Struct("!QB")
FRAME_OVERHEAD = _FRAME_HEAD.size + _BODY_HEAD.size  # 17

RECORD = 1
_RECORD_TYPES = frozenset({RECORD})

#: A single logical record larger than this is refused at append time,
#: and a length field claiming more is treated as damage at scan time.
MAX_RECORD_BYTES = 64 * 1024 * 1024
#: How far past a bad frame the resync probe searches for a valid
#: frame before concluding the damage is a torn tail.
RESYNC_WINDOW = 64 * 1024


def segment_name(index: int) -> str:
    return f"seg-000-{index:08d}.wal"


def parse_segment_name(name: str) -> int | None:
    """The sequence index of a segment file name, else None; a
    segment of any log but 0 is :class:`WalCorrupt`."""
    if not (name.startswith("seg-") and name.endswith(".wal")):
        return None
    parts = name[4:-4].split("-")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        return None
    if int(parts[0]) != 0:
        raise WalCorrupt(f"segment of log {int(parts[0])}; a store has "
                         f"only log 0", segment=name)
    return int(parts[1])


def list_segments(vfs) -> list[tuple[int, str]]:
    """Every segment in *vfs*, as ``(index, name)`` in chain order."""
    return sorted((index, name) for name in vfs.listdir()
                  if (index := parse_segment_name(name)) is not None)


def encode_segment_header(base_lsn: int) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, CRC32_ID, 0, 0, base_lsn)
    return head + _HEADER_CRC.pack(zlib.crc32(head))


def check_algorithm(alg_id: int, name: str) -> None:
    if alg_id != CRC32_ID:
        raise WalCorrupt(f"unknown checksum algorithm id 0x{alg_id:02x}",
                         segment=name, offset=0)


def decode_segment_header(data: bytes | memoryview,
                          name: str = "?") -> int:
    """Verify a segment header; returns its base LSN."""
    if len(data) < HEADER_SIZE:
        raise WalCorrupt("segment shorter than its header",
                         segment=name, offset=0)
    magic, version, alg_id, _, log, base_lsn = _HEADER.unpack_from(
        data, 0)
    if magic != MAGIC:
        raise WalCorrupt(f"bad segment magic {bytes(magic)!r}",
                         segment=name, offset=0)
    if version != FORMAT_VERSION:
        raise WalCorrupt(f"unsupported segment format version {version}",
                         segment=name, offset=0)
    check_algorithm(alg_id, name)
    (stored,) = _HEADER_CRC.unpack_from(data, _HEADER.size)
    if zlib.crc32(data[:_HEADER.size]) != stored:
        raise WalCorrupt("segment header failed its checksum",
                         segment=name, offset=0)
    if log != 0:
        raise WalCorrupt(f"segment header names log {log}; a store has "
                         f"only log 0", segment=name, offset=0)
    return base_lsn


def encode_frame(lsn: int, payload: bytes, rectype: int = RECORD) -> bytes:
    if len(payload) > MAX_RECORD_BYTES:
        raise WalCorrupt(
            f"record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame bound")
    body = _BODY_HEAD.pack(lsn, rectype) + payload
    return _FRAME_HEAD.pack(len(body), zlib.crc32(body)) + body


@dataclass(frozen=True)
class Frame:
    lsn: int
    rectype: int
    payload: bytes


@dataclass(frozen=True)
class ScanResult:
    """One segment's valid frames plus how its tail ended."""

    frames: tuple[Frame, ...]
    valid_end: int       # offset just past the last valid frame
    torn: bool           # bytes past valid_end that look like a crash
    total: int           # bytes scanned (header included)


def _frame_at(view: memoryview, offset: int, end: int) -> Frame | None:
    """Decode and verify the frame at *offset*; None if implausible or
    checksum-invalid (the caller decides torn-vs-corrupt)."""
    if offset + _FRAME_HEAD.size > end:
        return None
    length, stored = _FRAME_HEAD.unpack_from(view, offset)
    if (length < _BODY_HEAD.size
            or length > MAX_RECORD_BYTES + _BODY_HEAD.size
            or offset + _FRAME_HEAD.size + length > end):
        return None
    body = view[offset + _FRAME_HEAD.size:
                offset + _FRAME_HEAD.size + length]
    lsn, rectype = _BODY_HEAD.unpack_from(body, 0)
    if rectype not in _RECORD_TYPES:
        return None
    if zlib.crc32(body) != stored:
        return None
    return Frame(lsn, rectype, bytes(body[_BODY_HEAD.size:]))


def _resyncs(view: memoryview, start: int, end: int,
             after_lsn: int) -> bool:
    """Is there any valid frame with a later LSN within the resync
    window past *start*?  True means the damage sits in front of live
    data — corruption, not a torn tail."""
    limit = min(end, start + RESYNC_WINDOW)
    for offset in range(start + 1, limit):
        frame = _frame_at(view, offset, end)
        if frame is not None and frame.lsn > after_lsn:
            return True
    return False


def scan_segment(data: bytes | memoryview, name: str = "?") -> ScanResult:
    """Verify and decode every frame of one segment.

    Raises :class:`WalCorrupt` for damage that cannot be a torn tail;
    reports a torn tail through :attr:`ScanResult.torn` and leaves the
    truncation decision to the caller (only the *last* segment of the
    chain may lawfully be torn).
    """
    view = memoryview(data)
    decode_segment_header(view, name)
    end = len(view)
    frames: list[Frame] = []
    offset = HEADER_SIZE
    last_lsn = -1
    while offset < end:
        frame = _frame_at(view, offset, end)
        if frame is None:
            if _resyncs(view, offset, end, last_lsn):
                raise WalCorrupt(
                    "invalid frame followed by recoverable frames — "
                    "damage to possibly-acknowledged data",
                    segment=name, offset=offset)
            return ScanResult(tuple(frames), offset, True, end)
        if frame.lsn <= last_lsn:
            raise WalCorrupt(
                f"LSN {frame.lsn} not above predecessor {last_lsn}",
                segment=name, offset=offset)
        frames.append(frame)
        last_lsn = frame.lsn
        offset += _FRAME_HEAD.size + _BODY_HEAD.size + len(frame.payload)
    return ScanResult(tuple(frames), offset, False, end)

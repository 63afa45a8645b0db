"""Recovery: scan a store's log, hand back its records in LSN order.

:func:`recover` scans the segment chain — mapping segments, verifying
every frame checksum, decoding bodies.  A store has one log, appended
in LSN order, so file order is LSN order and the records come back as
they are read; the *application* of recovered records is strictly
sequential in that order.  (Scans used to fan out over worker
processes; measured, the fan-out lost to the sequential scan — 0.57 s
against 0.23 s on 100k records — and was deleted.)

Invariants enforced while scanning:

* segment indices are contiguous — checkpoint truncation removes a
  prefix, so a gap in the middle means a *missing segment* and raises
  :class:`~repro.core.errors.WalCorrupt`;
* only the final segment may be torn; a torn tail there is truncated
  at the last valid frame (fail closed — those bytes were never
  acknowledged), while torn earlier segments are corruption;
* LSNs increase strictly across the whole chain;
* every segment belongs to log 0 (:mod:`repro.wal.format`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import WalCorrupt
from repro.wal.format import HEADER_SIZE, list_segments, scan_segment


@dataclass
class RecoveryResult:
    """Everything :func:`recover` learned, ready to apply in order."""

    records: list[tuple[int, bytes]]   # (lsn, payload), LSN-ascending
    last_lsn: int = 0
    truncated: list[tuple[str, int]] = field(default_factory=list)
    segments: int = 0
    bytes_scanned: int = 0


def recover(vfs, *, from_lsn: int = 0,
            apply_truncation: bool = True) -> RecoveryResult:
    """Scan the chain for the records above *from_lsn*, and optionally
    apply fail-closed torn-tail truncation."""
    found = list_segments(vfs)
    result = RecoveryResult([], from_lsn)
    last_lsn = -1
    for position, (index, name) in enumerate(found):
        final = position == len(found) - 1
        if position > 0 and index != found[position - 1][0] + 1:
            raise WalCorrupt(
                f"segment chain jumps from index {found[position - 1][0]} "
                f"to {index}: missing segment", segment=name)
        result.segments += 1
        result.bytes_scanned += vfs.size(name)
        if vfs.size(name) < HEADER_SIZE:
            # A crash can tear a freshly-rotated segment mid-header
            # (header and first batch fsync together): lawful only at
            # the very end of the chain, where nothing in it was ever
            # acknowledged.
            if not final:
                raise WalCorrupt(
                    f"non-final segment {name} shorter than its header",
                    segment=name, offset=0)
            result.truncated.append((name, 0))
            continue
        with vfs.open_map(name) as mapped:
            scan = scan_segment(mapped.view, name)
        if scan.torn:
            if not final:
                raise WalCorrupt(
                    f"non-final segment {name} has a torn tail — "
                    f"damage to possibly-acknowledged data",
                    segment=name, offset=scan.valid_end)
            result.truncated.append((name, scan.valid_end))
        for frame in scan.frames:
            if frame.lsn <= last_lsn:
                raise WalCorrupt(
                    f"LSN {frame.lsn} in {name} not above predecessor "
                    f"{last_lsn}", segment=name)
            last_lsn = frame.lsn
            if frame.lsn > from_lsn:
                result.records.append((frame.lsn, frame.payload))
    if result.records:
        result.last_lsn = result.records[-1][0]
    if apply_truncation:
        for name, offset in result.truncated:
            if offset < HEADER_SIZE:
                # A tail torn mid-header holds nothing; truncating it
                # to zero would leave an empty file that sits mid-chain
                # once the recovered store appends higher-index
                # segments, failing every later recovery's
                # shorter-than-header check.  Delete it instead.
                vfs.delete(name)
            else:
                vfs.truncate(name, offset)
    return result

"""Recovery: scan each shard's log, replay one merged history.

:func:`recover` scans every shard's segment chain — mapping segments,
verifying every frame checksum, decoding bodies — and merges the
records by LSN.  The *application* of recovered records is strictly
sequential in LSN order: shards share one LSN space precisely so that
cross-shard operations (a registry delete purging assertions on other
shards) replay in the order writers produced them.  (Shard scans used
to fan out over worker processes; measured, the fan-out lost to the
sequential scan — 0.57 s against 0.23 s on 100k records — and was
deleted.)

Per-shard invariants enforced while scanning:

* segment indices are contiguous — checkpoint truncation removes a
  prefix, so a gap in the middle means a *missing segment* and raises
  :class:`~repro.core.errors.WalCorrupt`;
* only the final segment may be torn; a torn tail there is truncated
  at the last valid frame (fail closed — those bytes were never
  acknowledged), while torn earlier segments are corruption;
* LSNs increase strictly across the whole shard chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import WalCorrupt
from repro.wal.format import HEADER_SIZE, parse_segment_name, scan_segment


@dataclass
class ShardScan:
    """One shard's recovered records plus the scan's side findings."""

    shard: int
    records: list[tuple[int, bytes]]          # (lsn, payload), ordered
    truncate: tuple[str, int] | None = None   # torn tail to cut
    segments: int = 0
    bytes_scanned: int = 0


def scan_shard(vfs, shard: int) -> ShardScan:
    """Scan one shard's full segment chain (no side effects)."""
    found = sorted(
        (parsed[1], name) for name in vfs.listdir()
        if (parsed := parse_segment_name(name)) is not None
        and parsed[0] == shard)
    scan = ShardScan(shard, [])
    last_lsn = -1
    for position, (index, name) in enumerate(found):
        if position > 0 and index != found[position - 1][0] + 1:
            raise WalCorrupt(
                f"shard {shard} segment chain jumps from index "
                f"{found[position - 1][0]} to {index}: missing segment",
                shard=shard, segment=name)
        if vfs.size(name) < HEADER_SIZE:
            # A crash can tear a freshly-rotated segment mid-header
            # (header and first batch fsync together): lawful only at
            # the very end of the chain, where nothing in it was ever
            # acknowledged.
            if position != len(found) - 1:
                raise WalCorrupt(
                    f"non-final segment {name} shorter than its header",
                    shard=shard, segment=name, offset=0)
            scan.truncate = (name, 0)
            scan.segments += 1
            scan.bytes_scanned += vfs.size(name)
            continue
        with vfs.open_map(name) as mapped:
            result = scan_segment(mapped.view, name, expect_shard=shard)
        if result.torn:
            if position != len(found) - 1:
                raise WalCorrupt(
                    f"non-final segment {name} has a torn tail — "
                    f"damage to possibly-acknowledged data",
                    shard=shard, segment=name, offset=result.valid_end)
            scan.truncate = (name, result.valid_end)
        for frame in result.frames:
            if frame.lsn <= last_lsn:
                raise WalCorrupt(
                    f"shard {shard} LSN {frame.lsn} in {name} not "
                    f"above predecessor {last_lsn}",
                    shard=shard, segment=name)
            last_lsn = frame.lsn
            scan.records.append((frame.lsn, frame.payload))
        scan.segments += 1
        scan.bytes_scanned += result.total
    return scan


@dataclass
class RecoveryResult:
    """Everything :func:`recover` learned, ready to apply in order."""

    records: list[tuple[int, bytes]]   # merged, strictly LSN-ascending
    last_lsn: int = 0
    truncated: list[tuple[str, int]] = field(default_factory=list)
    segments: int = 0
    bytes_scanned: int = 0


def _merge(scans: list[ShardScan], from_lsn: int) -> RecoveryResult:
    merged: list[tuple[int, bytes]] = []
    for scan in scans:
        merged.extend(r for r in scan.records if r[0] > from_lsn)
    merged.sort(key=lambda record: record[0])
    for i in range(1, len(merged)):
        if merged[i][0] == merged[i - 1][0]:
            raise WalCorrupt(
                f"LSN {merged[i][0]} appears on two shards — the log's "
                f"global sequence is damaged")
    result = RecoveryResult(merged)
    result.last_lsn = merged[-1][0] if merged else from_lsn
    for scan in scans:
        if scan.truncate is not None:
            result.truncated.append(scan.truncate)
        result.segments += scan.segments
        result.bytes_scanned += scan.bytes_scanned
    return result


def recover(vfs, shards: int, *, from_lsn: int = 0,
            apply_truncation: bool = True) -> RecoveryResult:
    """Scan every shard, merge by LSN, and optionally apply fail-closed
    torn-tail truncation."""
    result = _merge([scan_shard(vfs, shard) for shard in range(shards)],
                    from_lsn)
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

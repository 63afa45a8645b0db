"""Segmented append-only logs with globally ordered LSNs.

One :class:`WriteAheadLog` owns one shard's segment chain.  LSNs come
from a single :class:`LsnAllocator` shared by every shard of a store,
so records on *different* shards still carry a total order: recovery
scans shard logs independently and then merges by LSN, replaying the
exact serialization the writers produced.  Within one shard the append
lock makes file order equal LSN order, which is what lets the segment
scanner treat a non-increasing LSN as corruption.

Segments rotate at a byte threshold; a sealed segment is synced before
the next one opens, so only the *last* segment of a shard can ever
carry a torn tail.  :meth:`WriteAheadLog.truncate_until` deletes the
prefix of sealed segments a checkpoint has made redundant — bounded
recovery work is the whole point of checkpointing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.errors import WalCorrupt, WalError
from repro.wal.checksum import DEFAULT_ALGORITHM, algorithm_id
from repro.wal.format import (
    HEADER_SIZE,
    RECORD,
    encode_frame,
    encode_segment_header,
    parse_segment_name,
    scan_segment,
    segment_name,
)


class LsnAllocator:
    """A monotone global sequence; LSN 0 means "nothing"."""

    def __init__(self, start: int = 0) -> None:
        self._mutex = threading.Lock()
        self._last = start

    def allocate(self) -> int:
        with self._mutex:
            self._last += 1
            return self._last

    @property
    def last(self) -> int:
        with self._mutex:
            return self._last


@dataclass
class LogStats:
    appended_records: int = 0
    appended_bytes: int = 0
    segments_opened: int = 0
    segments_truncated: int = 0
    syncs: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Sealed:
    index: int
    name: str
    last_lsn: int


class WriteAheadLog:
    """One shard's segment chain (appends are caller-serialized or go
    through the shard's :class:`~repro.wal.pipeline.CommitPipeline`,
    which owns the batching lock)."""

    def __init__(self, vfs, shard: int, allocator: LsnAllocator, *,
                 segment_bytes: int = 4 * 1024 * 1024,
                 algorithm: str = DEFAULT_ALGORITHM) -> None:
        self.vfs = vfs
        self.shard = shard
        self.allocator = allocator
        self.segment_bytes = segment_bytes
        self.algorithm = algorithm
        self._alg_id = algorithm_id(algorithm)
        self._mutex = threading.Lock()
        self._sealed: list[_Sealed] = []
        self._last_appended = 0
        self._last_synced = 0
        self.stats = LogStats()
        # Never append to a pre-existing segment: recovery may have
        # truncated a torn tail, and an old file's unsynced page-cache
        # state is unknowable.  Start a fresh segment after the highest
        # existing index — and register every pre-existing segment as
        # sealed, so a later checkpoint's truncate_until() reclaims the
        # true prefix of the chain.  Skipping them would leave the old
        # files behind forever and, worse, delete only newly-sealed
        # higher-index segments around them, punching an index gap the
        # next recovery reads as a missing segment.
        existing = sorted(
            (parsed[1], name) for name in vfs.listdir()
            if (parsed := parse_segment_name(name)) is not None
            and parsed[0] == shard)
        self._index = (existing[-1][0] + 1) if existing else 0
        last_lsn = 0
        for index, name in existing:
            if vfs.size(name) >= HEADER_SIZE:
                try:
                    with vfs.open_map(name) as mapped:
                        result = scan_segment(mapped.view, name,
                                              expect_shard=shard)
                except WalCorrupt:
                    # Un-recovered damage: stop registering here so no
                    # segment at or past it is ever deleted — recovery
                    # is the layer that rules on what the damage means.
                    break
                if result.frames:
                    last_lsn = result.frames[-1].lsn
            # A header-only (or empty) segment carries its
            # predecessor's LSN: it holds no records, so it may go
            # whenever the segment before it goes.
            self._sealed.append(_Sealed(index, name, last_lsn))
        self._segment = None
        self._segment_size = 0

    # -- appending ---------------------------------------------------------

    def _open_segment(self) -> None:
        header = encode_segment_header(self.shard, self.allocator.last,
                                       self.algorithm)
        self._segment = self.vfs.create(segment_name(self.shard,
                                                     self._index))
        self._segment.write(header)
        self._segment_size = len(header)
        self.stats.segments_opened += 1

    def _seal_segment(self) -> None:
        self._segment.sync()
        self._segment.close()
        self._sealed.append(_Sealed(self._index,
                                    segment_name(self.shard, self._index),
                                    self._last_appended))
        self._index += 1
        self._segment = None

    def append(self, payload: bytes, lsn: int | None = None,
               rectype: int = RECORD) -> int:
        """Append one framed record (no sync); returns its LSN.

        Callers may pass a pre-allocated *lsn* (the commit pipeline
        allocates under its own mutex to keep queue order equal to LSN
        order); it must be above every LSN this shard has seen.
        """
        with self._mutex:
            if lsn is None:
                lsn = self.allocator.allocate()
            elif lsn <= self._last_appended:
                raise WalError(
                    f"shard {self.shard} append of LSN {lsn} at or "
                    f"below last appended {self._last_appended}")
            frame = encode_frame(lsn, payload, self._alg_id, rectype)
            self._append_bytes(frame)
            self._last_appended = lsn
            self.stats.appended_records += 1
            return lsn

    def append_encoded(self, batch: bytes, last_lsn: int,
                       records: int) -> None:
        """Append a pre-framed batch in one buffered write (the group
        -commit fast path; frames were encoded by the pipeline)."""
        with self._mutex:
            if last_lsn <= self._last_appended:
                raise WalError(
                    f"shard {self.shard} batch ending at LSN {last_lsn} "
                    f"at or below last appended {self._last_appended}")
            self._append_bytes(batch)
            self._last_appended = last_lsn
            self.stats.appended_records += records

    def _append_bytes(self, data: bytes) -> None:
        if self._segment is None:
            self._open_segment()
        elif (self._segment_size + len(data) > self.segment_bytes
                and self._segment_size > 0):
            self._seal_segment()
            self._open_segment()
        self._segment.write(data)
        self._segment_size += len(data)
        self.stats.appended_bytes += len(data)

    # -- durability --------------------------------------------------------

    def sync(self) -> int:
        """Flush and fsync the open segment; returns the LSN now
        guaranteed durable."""
        with self._mutex:
            if self._segment is not None:
                self._segment.sync()
                self.stats.syncs += 1
            self._last_synced = self._last_appended
            return self._last_synced

    @property
    def last_appended(self) -> int:
        return self._last_appended

    @property
    def last_synced(self) -> int:
        return self._last_synced

    # -- checkpoint-driven truncation --------------------------------------

    def truncate_until(self, lsn: int) -> int:
        """Delete the prefix of sealed segments wholly covered by a
        checkpoint at *lsn*; returns how many segments were removed.

        Only a strict prefix ever goes: recovery requires contiguous
        segment indices per shard, and a hole in the middle must stay
        distinguishable from this lawful trimming.
        """
        removed = 0
        with self._mutex:
            while self._sealed and self._sealed[0].last_lsn <= lsn:
                sealed = self._sealed.pop(0)
                self.vfs.delete(sealed.name)
                removed += 1
            self.stats.segments_truncated += removed
        return removed

    def close(self) -> None:
        with self._mutex:
            if self._segment is not None:
                self._segment.sync()
                self._segment.close()
                self._segment = None
                self._last_synced = self._last_appended


class ShardedWal:
    """N shard logs over one vfs directory, one LSN space."""

    def __init__(self, vfs, shards: int = 4, *,
                 segment_bytes: int = 4 * 1024 * 1024,
                 algorithm: str = DEFAULT_ALGORITHM,
                 start_lsn: int = 0) -> None:
        if shards < 1:
            raise WalError("a sharded wal needs at least one shard")
        self.vfs = vfs
        self.shard_count = shards
        self.allocator = LsnAllocator(start_lsn)
        self.logs = tuple(
            WriteAheadLog(vfs, shard, self.allocator,
                          segment_bytes=segment_bytes,
                          algorithm=algorithm)
            for shard in range(shards))

    def log(self, shard: int) -> WriteAheadLog:
        return self.logs[shard]

    def sync_all(self) -> int:
        """Sync every shard; returns the globally durable LSN floor."""
        return max(log.sync() for log in self.logs)

    @property
    def last_appended(self) -> int:
        return max((log.last_appended for log in self.logs), default=0)

    def truncate_until(self, lsn: int) -> int:
        return sum(log.truncate_until(lsn) for log in self.logs)

    def close(self) -> None:
        for log in self.logs:
            log.close()

    def stats_snapshot(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for log in self.logs:
            for key, value in log.stats.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

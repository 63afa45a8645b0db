"""A segmented append-only log: one chain per durable store.

One :class:`WriteAheadLog` owns a store's segment chain and its LSN
counter.  Appends go through the store's
:class:`~repro.wal.pipeline.CommitPipeline` (or are caller-serialized),
so file order is LSN order, which is what lets the segment scanner
treat a non-increasing LSN as corruption and lets recovery replay the
chain as it reads it.

Segments rotate at a byte threshold; a sealed segment is synced before
the next one opens, so only the *last* segment can ever carry a torn
tail.  :meth:`WriteAheadLog.truncate_until` deletes the prefix of
sealed segments a checkpoint has made redundant — bounded recovery
work is the whole point of checkpointing.

Opening a log scans the chain on disk.  Records above ``start_lsn``
or a torn tail mean nobody recovered it: appending would put new LSNs
behind old ones (or a segment behind a torn one) and brick the next
recovery, so the open refuses instead, naming ``recover()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.errors import WalError
from repro.wal.checksum import DEFAULT_ALGORITHM, algorithm_id
from repro.wal.format import (
    HEADER_SIZE,
    RECORD,
    encode_frame,
    encode_segment_header,
    list_segments,
    scan_segment,
    segment_name,
)


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
    """A store's segment chain (appends are caller-serialized or go
    through the store's :class:`~repro.wal.pipeline.CommitPipeline`,
    which owns the batching lock and allocates LSNs under it)."""

    def __init__(self, vfs, *, start_lsn: int = 0,
                 segment_bytes: int = 4 * 1024 * 1024,
                 algorithm: str = DEFAULT_ALGORITHM) -> None:
        self.vfs = vfs
        self.segment_bytes = segment_bytes
        self.algorithm = algorithm
        self._alg_id = algorithm_id(algorithm)
        self._mutex = threading.Lock()
        self._sealed: list[_Sealed] = []
        self._last_lsn = start_lsn  # last LSN allocated; 0 is "nothing"
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
        # next recovery reads as a missing segment.  Damage raises
        # WalCorrupt here; only recovery may rule on what it means.
        existing = list_segments(vfs)
        self._index = (existing[-1][0] + 1) if existing else 0
        last_lsn = 0
        for index, name in existing:
            if vfs.size(name) < HEADER_SIZE:
                raise self._unrecovered(f"{name} is torn mid-header")
            with vfs.open_map(name) as mapped:
                result = scan_segment(mapped.view, name)
            if result.torn:
                raise self._unrecovered(f"{name} has a torn tail")
            if result.frames:
                last_lsn = result.frames[-1].lsn
            # A header-only segment carries its predecessor's LSN: it
            # holds no records, so it may go whenever the segment
            # before it goes.
            self._sealed.append(_Sealed(index, name, last_lsn))
        if last_lsn > start_lsn:
            raise self._unrecovered(
                f"it holds records up to LSN {last_lsn}, above the "
                f"start LSN {start_lsn}")
        self._segment = None
        self._segment_size = 0

    @staticmethod
    def _unrecovered(why: str) -> WalError:
        return WalError(f"log directory was not recovered ({why}); open "
                        f"it with recover()")

    # -- appending ---------------------------------------------------------

    def allocate(self) -> int:
        """The next LSN.  Callers serialize: the pipeline calls it under
        its queue mutex, so queue order, LSN order and file order agree."""
        self._last_lsn += 1
        return self._last_lsn

    @property
    def last_lsn(self) -> int:
        """The last LSN allocated (appended or still queued)."""
        return self._last_lsn

    def _open_segment(self) -> None:
        header = encode_segment_header(self._last_lsn, self.algorithm)
        self._segment = self.vfs.create(segment_name(self._index))
        self._segment.write(header)
        self._segment_size = len(header)
        self.stats.segments_opened += 1

    def _seal_segment(self) -> None:
        self._segment.sync()
        self._segment.close()
        self._sealed.append(_Sealed(self._index, segment_name(self._index),
                                    self._last_appended))
        self._index += 1
        self._segment = None

    def append(self, payload: bytes, lsn: int | None = None,
               rectype: int = RECORD) -> int:
        """Append one framed record (no sync); returns its LSN.

        Callers may pass an *lsn* of their own; it must be above every
        LSN this log has appended.
        """
        with self._mutex:
            if lsn is None:
                lsn = self.allocate()
            elif lsn <= self._last_appended:
                raise WalError(
                    f"append of LSN {lsn} at or below last appended "
                    f"{self._last_appended}")
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
                    f"batch ending at LSN {last_lsn} at or below last "
                    f"appended {self._last_appended}")
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

    @property
    def tail_name(self) -> str:
        """The segment the next append lands in (or just landed in)."""
        return segment_name(self._index)

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
        segment indices, and a hole in the middle must stay
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

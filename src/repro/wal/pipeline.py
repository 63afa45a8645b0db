"""Group commit: many committers, one buffered write + one fsync per batch.

Naive durability syncs once per record; at ~6k fsyncs/s that caps the
whole store at ~6k writes/s regardless of CPU.  The pipeline instead
has writers *enqueue* framed records and then wait on their ticket, and
the waiting is where the work happens — **leader/follower commit**: the
committer that finds the pipeline idle claims it, takes the queue,
writes and syncs it *on its own thread* and resolves the batch (no
hand-off to a flusher, so a lone writer pays the device and nothing
else); a committer that finds a leader at work waits on the pipeline's
condition.  Every batch is one ``write()`` of the concatenated frames
and one ``sync()``, so the fsync cost is shared by every record in it.

Followers wait on the *condition*, never on a lock around the flush:
blocked on a flush lock they wake one at a time, each finding only its
own record queued and flushing a batch of one (the follower convoy —
mean batch 1.02 on a 1 ms device).  Woken together by the leader's
``notify_all``, they return to their callers, and their next records
land in the next leader's batch.  That leader lingers for them — a
fraction of the *measured* sync cost — **only when the previous batch
carried more than one record**: a rule over observed traffic, so a lone
writer never waits for company that cannot arrive.

Nothing flushes in the background, so an acknowledged record is one
its own committer saw synced.

LSNs are allocated at submit time, under the queue mutex, so queue
order, LSN order, and file order all agree.

Fault site ``wal`` (one step per batch sync):

* CRASH / DROP — the device refused the batch.  Every ticket in it
  *and every ticket still queued behind it* fails with a typed
  :class:`~repro.core.errors.WalError`; nothing is acknowledged and
  the pipeline seals itself, because a log whose tail failed mid-write
  must not accept later appends (ack-then-loss is the one unforgivable
  durability sin) nor flush records behind the hole.
* CORRUPT — the batch "succeeds" but its bytes rot on the platter
  (deterministic single-byte damage), to be discovered by recovery.
* DELAY — charged to the shared fault clock, modelling a stalled
  device.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.errors import WalError
from repro.faults.plan import FaultKind
from repro.wal.format import encode_frame
from repro.wal.log import WriteAheadLog

#: The fault site a batch sync steps.
SITE = "wal"

#: Upper bound on the adaptive linger; the EMA usually keeps it far
#: lower (a fraction of one measured sync).
MAX_LINGER_SECONDS = 0.002
#: Linger as a fraction of the measured sync cost: waiting ~half an
#: fsync for more company is at worst a 1.5x latency hit for an up-to
#: -batch-size throughput win.
LINGER_FRACTION = 0.5


@dataclass
class PipelineStats:
    submitted: int = 0
    batches: int = 0
    records_flushed: int = 0
    bytes_flushed: int = 0
    syncs: int = 0
    max_batch: int = 0
    faults_injected: int = 0

    def snapshot(self) -> dict[str, float]:
        stats = dict(self.__dict__)
        stats["mean_batch"] = (self.records_flushed / self.batches
                               if self.batches else 0.0)
        return stats


class CommitTicket:
    """One committer's claim on a batch: wait() returns once the fsync
    that covers this record has happened (or failed, typed) — leading
    that fsync itself when nobody else is."""

    __slots__ = ("lsn", "_pipeline", "_done", "_error")

    def __init__(self, lsn: int, pipeline: "CommitPipeline") -> None:
        self.lsn = lsn
        self._pipeline = pipeline
        self._done = False
        self._error: WalError | None = None

    @property
    def synced(self) -> bool:
        return self._done and self._error is None

    def wait(self, timeout: float | None = None) -> int:
        if not self._done:  # resolved tickets skip the mutex
            self._pipeline._await(self, timeout)
        if self._error is not None:
            raise self._error
        return self.lsn


class CommitPipeline:
    """A log's group-commit queue; committers flush it themselves.

    The queue drains when a ticket is waited on or :meth:`flush` is
    called, on the caller's thread and with no wall-clock dependence,
    which is what deterministic tests and the chaos battery rely on.
    """

    def __init__(self, log: WriteAheadLog, *,
                 max_batch: int = 256,
                 injector=None,
                 vfs=None) -> None:
        self.log = log
        self.max_batch = max_batch
        self.injector = injector
        self.vfs = vfs
        self.stats = PipelineStats()
        self._mutex = threading.Lock()
        self._idle = threading.Condition(self._mutex)
        self._queue: list[tuple[CommitTicket, bytes]] = []
        # One leader at a time owns take-batch + write + sync: two
        # would take disjoint batches and race to append them, and a
        # later-LSN batch landing first makes the earlier append a
        # WalError — applied-but-unlogged records.
        self._leading = False
        self._shared = False  # did the previous batch carry company?
        self._sealed: WalError | None = None
        self._closed = False
        self._sync_cost_ema = 0.0

    # -- writer side -------------------------------------------------------

    def _refuse(self) -> None:
        if self._sealed is not None:
            raise WalError(
                f"commit pipeline is sealed after a write fault: "
                f"{self._sealed}")
        if self._closed:
            raise WalError("commit pipeline is closed")

    def admit(self) -> None:
        """Raise what :meth:`submit` would raise right now.  A store
        asks *before* applying a transaction, so a sealed or closed
        log refuses the write instead of diverging from it."""
        with self._mutex:
            self._refuse()

    def submit(self, payload: bytes) -> CommitTicket:
        """Frame and enqueue one record; returns its ticket, which the
        caller waits on before acknowledging."""
        with self._mutex:
            self._refuse()
            lsn = self.log.allocate()
            ticket = CommitTicket(lsn, self)
            self._queue.append((ticket, encode_frame(lsn, payload)))
            self.stats.submitted += 1
            return ticket

    def _await(self, ticket: CommitTicket, timeout: float | None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            while not ticket._done:
                if not self._leading and self._queue:
                    # Idle pipeline, unresolved ticket: it is queued,
                    # and this thread is the one to flush it.
                    try:
                        self._lead()
                    except WalError:
                        pass  # sealed; the ticket carries the error
                    continue
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise WalError(f"timed out waiting for LSN "
                                   f"{ticket.lsn} to become durable")
                self._idle.wait(remaining)

    # -- leader side -------------------------------------------------------

    def flush(self) -> int:
        """Drain one batch through write+sync; returns records flushed.

        Safe to call concurrently with submits, waiters *and* other
        flush() calls — whoever holds the leadership writes, everyone
        else waits their turn, so batch order stays LSN order.
        """
        with self._mutex:
            while self._leading:
                self._idle.wait()
            return self._lead()

    def _lead(self) -> int:
        """Flush one batch on the calling thread.  Entered with the
        mutex held and no leader; drops the mutex around the linger and
        the device work, holds it again on return."""
        if not self._queue:
            return 0
        self._leading = True
        batch: list[tuple[CommitTicket, bytes]] = []
        # Until the batch is known durable, whatever stops this leader
        # (an interrupt included) seals the log.
        error: WalError | None = WalError("wal flush was interrupted")
        try:
            if self._shared and len(self._queue) < self.max_batch:
                # The last batch had company, so company is likely on
                # its way back: wait a fraction of one sync for it.
                self._mutex.release()
                try:
                    time.sleep(self._linger())
                finally:
                    self._mutex.acquire()
            batch = self._queue[:self.max_batch]
            del self._queue[:len(batch)]
            self._mutex.release()
            try:
                error = self._write_batch(batch)
            finally:
                self._mutex.acquire()
        except WalError as exc:
            error = exc
            raise
        except Exception as exc:
            error = WalError(f"wal flush failed: {exc}")
            raise error from exc
        finally:
            if error is None:
                for ticket, _ in batch:
                    ticket._done = True
                self._shared = len(batch) > 1
            else:
                self._seal(batch, error)
            self._leading = False
            self._idle.notify_all()
        return 0 if error is not None else len(batch)

    def _seal(self, batch: list[tuple[CommitTicket, bytes]],
              error: WalError) -> None:
        """The one place that seals (mutex held): fail the taken batch
        *and* everything queued behind it, typed.  A taken-but-
        unresolved ticket strands its waiter forever; a record left
        queued would later be flushed behind the hole."""
        self._sealed = self._sealed or error
        for ticket, _ in batch + self._queue:
            ticket._error = self._sealed
            ticket._done = True
        self._queue.clear()

    def _write_batch(self, batch: list[tuple[CommitTicket, bytes]]
                     ) -> WalError | None:
        """One write + one sync (no mutex held).  An injected device
        fault comes back as the error to seal with; a real one raises."""
        corrupt_after = False
        if self.injector is not None:
            for event in self.injector.step(SITE):
                self.stats.faults_injected += 1
                if event.kind in (FaultKind.CRASH, FaultKind.DROP):
                    return WalError(
                        f"wal device fault ({event.kind.value}): batch "
                        f"of {len(batch)} records not durable")
                if event.kind is FaultKind.CORRUPT:
                    corrupt_after = True
                # DELAY is charged by injector.step via the fault clock
        data = b"".join(frame for _, frame in batch)
        started = time.perf_counter()
        self.log.append_encoded(data, batch[-1][0].lsn, len(batch))
        self.log.sync()
        elapsed = time.perf_counter() - started
        self._sync_cost_ema = (elapsed if self._sync_cost_ema == 0.0
                               else 0.8 * self._sync_cost_ema
                               + 0.2 * elapsed)
        if corrupt_after and self.vfs is not None:
            self._corrupt_tail(len(data))
        self.stats.batches += 1
        self.stats.records_flushed += len(batch)
        self.stats.bytes_flushed += len(data)
        self.stats.syncs += 1
        self.stats.max_batch = max(self.stats.max_batch, len(batch))
        return None

    def _corrupt_tail(self, batch_bytes: int) -> None:
        """CORRUPT overlay: rot one byte of the just-synced batch in
        the durable image (MemVfs only — the power-loss model)."""
        # A batch is one write and a segment rotates before it, never
        # inside it: the whole batch ends the tail segment.
        name = self.log.tail_name
        damaged = self.injector.corrupt_bytes(b"\x00" * batch_bytes, SITE)
        offset = next(i for i, b in enumerate(damaged) if b != 0)
        self.vfs.corrupt_byte(
            name, self.vfs.durable_size(name) - batch_bytes + offset)

    def _linger(self) -> float:
        return min(MAX_LINGER_SECONDS,
                   self._sync_cost_ema * LINGER_FRACTION) or 0.0001

    def close(self) -> None:
        with self._mutex:
            self._closed = True
        while self.flush():
            pass

    def stats_snapshot(self) -> dict[str, float]:
        snap = self.stats.snapshot()
        snap["sealed"] = self._sealed is not None
        return snap

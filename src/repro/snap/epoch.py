"""Epoch-based snapshot publication and reclamation.

The concurrency contract of the snapshot read path:

* **publish** — a writer freezes its store into an immutable snapshot
  and swaps the *current* pointer.  The swap is a single reference
  assignment under the manager's mutex; readers never take that mutex
  on the fast path (:meth:`EpochManager.current` is one attribute read).
* **pin** — a reader that needs a stable epoch across several
  operations calls :meth:`acquire` / :meth:`release` (or the
  :meth:`reading` context manager), which refcounts the epoch.
* **reclaim** — when a newer snapshot is published, the previous one is
  *retired*.  A retired epoch is reclaimed (its ``close()`` hook runs,
  caches pinned by it can drop) only when its refcount reaches zero:
  a reader holding epoch N across an arbitrary writer burst keeps N
  alive, and N is reclaimed at the moment of that reader's release —
  the epoch-based-reclamation half of the lock-free read path.

Double release raises :class:`~repro.core.errors.EpochRetired` rather
than silently corrupting the refcounts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import EpochRetired, SnapshotError


@dataclass
class EpochStats:
    """Publication/reclamation counters (benchmarks report these)."""

    published: int = 0
    retired: int = 0
    reclaimed: int = 0
    acquires: int = 0
    releases: int = 0

    def snapshot(self) -> dict[str, int]:
        return {"published": self.published, "retired": self.retired,
                "reclaimed": self.reclaimed, "acquires": self.acquires,
                "releases": self.releases}


class EpochManager:
    """Atomically-published snapshot pointer with refcounted retirement.

    Snapshot objects only need a writable ``epoch`` attribute (set once
    at publish) and may provide a ``close()`` method, called exactly
    once at reclamation.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._current = None
        self._next_epoch = 0
        # epoch -> refcount of readers still pinning it.
        self._refs: dict[int, int] = {}
        # epoch -> snapshot, for snapshots superseded but still pinned.
        self._retired: dict[int, object] = {}
        # durability key (checkpoint LSN or digest) -> epoch held by a
        # retain_until pin that has not been released yet.
        self._durable_pins: dict[object, int] = {}
        self.stats = EpochStats()

    # -- publication (writer side) --------------------------------------

    def publish(self, snapshot) -> object:
        """Make *snapshot* the current epoch; retire the previous one."""
        if snapshot is None:
            raise SnapshotError("cannot publish a None snapshot")
        with self._mutex:
            snapshot.epoch = self._next_epoch
            self._next_epoch += 1
            previous = self._current
            self._current = snapshot
            self._refs.setdefault(snapshot.epoch, 0)
            self.stats.published += 1
            if previous is not None:
                self.stats.retired += 1
                if self._refs.get(previous.epoch, 0) > 0:
                    self._retired[previous.epoch] = previous
                else:
                    self._reclaim_locked(previous)
        return snapshot

    def _reclaim_locked(self, snapshot) -> None:
        self._refs.pop(snapshot.epoch, None)
        self._retired.pop(snapshot.epoch, None)
        self.stats.reclaimed += 1
        close = getattr(snapshot, "close", None)
        if close is not None:
            close()

    # -- reading (lock-free fast path + pinned slow path) ---------------

    def current(self):
        """The current snapshot — one attribute read, no locks.

        Safe for single-operation reads: the returned snapshot is
        immutable and remains valid for the duration of the reference.
        Reads spanning several operations that must observe *one* epoch
        should pin it with :meth:`acquire`/:meth:`reading`.
        """
        snapshot = self._current
        if snapshot is None:
            raise SnapshotError("no snapshot published yet")
        return snapshot

    def acquire(self):
        """Pin and return the current snapshot (refcounted)."""
        with self._mutex:
            snapshot = self._current
            if snapshot is None:
                raise SnapshotError("no snapshot published yet")
            self._refs[snapshot.epoch] = self._refs.get(snapshot.epoch,
                                                        0) + 1
            self.stats.acquires += 1
            return snapshot

    def release(self, snapshot) -> None:
        """Drop a pin; reclaims the epoch if it is retired and unheld."""
        with self._mutex:
            count = self._refs.get(snapshot.epoch)
            if count is None or count <= 0:
                raise EpochRetired(
                    f"epoch {snapshot.epoch} has no outstanding pins "
                    f"(double release?)")
            self._refs[snapshot.epoch] = count - 1
            self.stats.releases += 1
            if (count - 1 == 0
                    and snapshot.epoch in self._retired):
                self._reclaim_locked(self._retired[snapshot.epoch])

    def retain_until(self, snapshot, key) -> "Callable[[], None]":
        """Pin *snapshot*'s epoch for durability work keyed by *key*
        (a checkpoint LSN or digest); returns the release callable.

        Checkpointing serializes a snapshot while writers keep
        publishing: without this pin, the epoch being serialized could
        be retired *and reclaimed* mid-serialization (its ``close()``
        hook dropping caches out from under the serializer).  The pin
        holds exactly like a reader's, and the returned callable — to
        be invoked once the checkpoint file is fsynced — releases it
        idempotently.

        Pinning an already-reclaimed epoch raises
        :class:`~repro.core.errors.EpochRetired`: the caller's snapshot
        reference is stale and serializing it would checkpoint a state
        that reclamation has already dismantled.
        """
        with self._mutex:
            epoch = getattr(snapshot, "epoch", None)
            if epoch is None or epoch not in self._refs:
                raise EpochRetired(
                    f"epoch {epoch} is already reclaimed; cannot "
                    f"retain it for durability key {key!r}")
            self._refs[epoch] = self._refs[epoch] + 1
            self._durable_pins[key] = epoch
            self.stats.acquires += 1

        released = threading.Event()

        def release() -> None:
            if released.is_set():
                return
            released.set()
            with self._mutex:
                self._durable_pins.pop(key, None)
            self.release(snapshot)

        return release

    def durable_pins(self) -> dict[object, int]:
        """key -> epoch for every outstanding retain_until pin."""
        with self._mutex:
            return dict(self._durable_pins)

    def reading(self) -> "_Pin":
        """``with manager.reading() as snapshot:`` — :meth:`acquire` on
        entry, :meth:`release` on exit, raising or not."""
        return _Pin(self)

    # -- introspection ---------------------------------------------------

    def current_epoch(self) -> int:
        return self.current().epoch

    def retired_epochs(self) -> list[int]:
        """Epochs superseded but still pinned by at least one reader."""
        with self._mutex:
            return sorted(self._retired)

    def is_reclaimed(self, epoch: int) -> bool:
        """Whether *epoch* was published and has been reclaimed since:
        every published epoch is current, retired-and-pinned or gone."""
        with self._mutex:
            return epoch < self._next_epoch and epoch not in self._refs

    def pins(self, epoch: int) -> int:
        with self._mutex:
            return self._refs.get(epoch, 0)


class _Pin:
    """The context manager :meth:`EpochManager.reading` returns: a pin
    through the manager's own (possibly overridden) acquire/release."""

    __slots__ = ("_manager", "_snapshot")

    def __init__(self, manager: EpochManager) -> None:
        self._manager = manager

    def __enter__(self):
        self._snapshot = self._manager.acquire()
        return self._snapshot

    def __exit__(self, *exc_info) -> None:
        self._manager.release(self._snapshot)

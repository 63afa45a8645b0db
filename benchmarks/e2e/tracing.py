"""Spans and the timing proxies that record them.

The benchmark records spans from its own files, around the calls into
each layer: the proxies below stand at the injection seams of the
serving stack — the engine, store, epoch manager, vfs and replica
router handed to the gateway — and the workload drivers open the
client-side spans.  A span is ``[id, name, start, end, parent id,
request id]``; spans are kept in memory and written out when the run
ends.  A layer's self time is its span's duration minus the durations
of its direct children.

Spans are recorded only while ``tracer.on`` (the closed bursts of a
traced run).  An untraced run builds the stack without any proxy.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.snap.epoch import EpochManager

perf_counter = time.perf_counter


class NullTracer:
    """Tracing off: the drivers' begin/end calls do nothing."""

    on = False
    request = 0

    def begin(self, name: str):
        return None

    def end(self, span) -> None:
        return None


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.on = False
        self.request = 0
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str):
        if not self.on:
            return None
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), name, 0.0, 0.0, parent, self.request,
                threading.get_ident() == self._main]
        stack.append(span)
        span[2] = perf_counter()
        return span

    def end(self, span) -> None:
        if span is None:
            return
        span[3] = perf_counter()
        self._stack().pop()
        self.spans.append(span)   # list.append is atomic under the GIL

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, span count) per span name.

        A span recorded on another thread (the WAL flusher) has no
        parent of its own; it is adopted by the deepest main-thread
        span that was open when it started, because under the
        interpreter lock the time it ran is time that span did not.
        """
        spans = sorted(self.spans, key=lambda span: span[2])
        main = [span for span in spans if span[6]]
        children: dict[int, float] = defaultdict(float)
        open_spans: list[list] = []   # main-thread spans begun so far
        cursor = 0
        for span in spans:
            parent = span[4]
            if not parent and not span[6]:
                while cursor < len(main) and main[cursor][2] <= span[2]:
                    open_spans.append(main[cursor])
                    cursor += 1
                while open_spans and open_spans[-1][3] < span[2]:
                    open_spans.pop()
                parent = open_spans[-1][0] if open_spans else 0
            if parent:
                children[parent] += span[3] - span[2]
        totals: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for span in spans:
            totals[span[1]] += span[3] - span[2] - children[span[0]]
            counts[span[1]] += 1
        return totals, counts

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request", "main")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- proxies at the injection seams -----------------------------------------


class TracedShard:
    """One shard engine: a span per ``decide_batch`` call."""

    def __init__(self, engine, tracer: Tracer) -> None:
        self._engine = engine
        self._tracer = tracer
        self.decisions = 0

    def decide_batch(self, requests):
        span = self._tracer.begin("compile.decide")
        try:
            return self._engine.decide_batch(requests)
        finally:
            self._tracer.end(span)
            self.decisions += len(requests)


class TracedRouter:
    """The gateway's engine: routing untouched, shard engines traced."""

    def __init__(self, router, tracer: Tracer) -> None:
        self._router = router
        self.shard_for_path = router.shard_for_path
        self.shards = tuple(TracedShard(router.engine(index), tracer)
                            for index in range(router.shard_count))

    def engine(self, shard: int) -> TracedShard:
        return self.shards[shard]

    def __getattr__(self, name: str):
        return getattr(self._router, name)


class TracedSnapshot:
    """A pinned snapshot whose document lookup is a span."""

    __slots__ = ("_snapshot", "_tracer", "epoch")

    def __init__(self, snapshot, tracer: Tracer) -> None:
        self._snapshot = snapshot
        self._tracer = tracer
        self.epoch = snapshot.epoch

    def document(self, collection: str, doc_id: str):
        span = self._tracer.begin("snap.resolve")
        try:
            return self._snapshot.document(collection, doc_id)
        finally:
            self._tracer.end(span)

    def __getattr__(self, name: str):
        return getattr(self._snapshot, name)


class TracedEpochs(EpochManager):
    """Epoch manager with spans on pin, unpin and publish."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self.live_epochs_max = 1

    def publish(self, snapshot):
        span = self._tracer.begin("snap.publish")
        try:
            return super().publish(snapshot)
        finally:
            self._tracer.end(span)
            self.live_epochs_max = max(self.live_epochs_max,
                                       len(self.retired_epochs()) + 1)

    def acquire(self):
        span = self._tracer.begin("snap.pin")
        try:
            return TracedSnapshot(super().acquire(), self._tracer)
        finally:
            self._tracer.end(span)

    def release(self, snapshot) -> None:
        span = self._tracer.begin("snap.pin")
        try:
            super().release(snapshot)
        finally:
            self._tracer.end(span)


class TracedFile:
    """A WAL file handle: spans on the buffered write and the sync."""

    def __init__(self, handle, tracer: Tracer) -> None:
        self._handle = handle
        self._tracer = tracer

    def write(self, data) -> None:
        span = self._tracer.begin("wal.append")
        try:
            self._handle.write(data)
        finally:
            self._tracer.end(span)

    def sync(self) -> None:
        span = self._tracer.begin("wal.fsync")
        try:
            self._handle.sync()
        finally:
            self._tracer.end(span)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


class TracedVfs:
    def __init__(self, vfs, tracer: Tracer) -> None:
        self._vfs = vfs
        self._tracer = tracer

    def create(self, name: str) -> TracedFile:
        return TracedFile(self._vfs.create(name), self._tracer)

    def __getattr__(self, name: str):
        return getattr(self._vfs, name)


class TracedStore:
    """The gateway's store: a span per write transaction.

    ``snap.txn`` covers the whole writer block; its child
    ``wal.ack_wait`` covers the block's exit (publish, then the wait
    for the fsync that covers the transaction).  The publish span and
    the flusher's append/fsync spans nest under it, so the self time
    of ``wal.ack_wait`` is hand-off plus linger, and the self time of
    ``snap.txn`` is applying (and encoding and enqueueing) the edits.
    """

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer
        self.pool = store.pool
        self.epochs = store.epochs
        self.wal_sync = store.wal_sync

    @contextmanager
    def writer(self):
        tracer = self._tracer
        txn = tracer.begin("snap.txn")
        wait = None
        try:
            with self._store.writer():
                yield self
                wait = tracer.begin("wal.ack_wait")
        finally:
            tracer.end(wait)
            tracer.end(txn)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


class TracedReplicas:
    """The replica router: spans on put and get."""

    def __init__(self, replicas, tracer: Tracer) -> None:
        self._replicas = replicas
        self._tracer = tracer

    def put(self, key, value, session=None):
        span = self._tracer.begin("replica.put")
        try:
            return self._replicas.put(key, value, session=session)
        finally:
            self._tracer.end(span)

    def get(self, key, session=None):
        span = self._tracer.begin("replica.get")
        try:
            return self._replicas.get(key, session=session)
        finally:
            self._tracer.end(span)

    def __getattr__(self, name: str):
        return getattr(self._replicas, name)

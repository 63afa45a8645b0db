"""The one serving pipeline: admission → tick batches → streaming.

:class:`AsyncRequestGateway` is the only implementation of the tenant
registry, admission, the deficit-round-robin per-batch tick, queue-wait
accounting, the fault → typed-error mapping, streaming, the snapshot
read/write path and the replica path.  Its contracts:

* **admission is non-blocking** — :meth:`submit_nowait` either enqueues
  and returns an :class:`asyncio.Future`, or raises a typed refusal:
  :class:`~repro.core.errors.Overloaded` (token bucket empty or a
  queue-depth watermark shed this priority tier; carries Retry-After)
  below the hard limit, :class:`~repro.core.errors.AdmissionRejected`
  at it or for a batch bigger than the tenant's burst.  Nothing ever
  waits for queue space;
* **authorization is batched per tick** — the first submit into an
  idle gateway schedules one loop callback, the *tick*; every submitter
  that runs before it lands in its batch.  The tick dequeues one batch
  fairly across tenants (deficit round robin), accounts it, and hands
  it to :meth:`_decide`, which groups by shard and resolves every
  group inline through the engine's ``decide_batch`` — a shard's
  compiled table when the engine is an
  :class:`~repro.gateway.engine.EpochalShardRouter`.  If work
  remains the tick schedules itself again: one loop turn between
  batches and none inside one, so ``batch_size`` bounds how long a
  backlog holds the loop;
* **dissemination streams** — :meth:`stream` pins the store epoch *at
  admission* and serves chunked canonical bytes from interned snapshot
  fragments, interning what it serializes; writers publish freely
  between chunks and the pinned snapshot stays alive until the stream
  ends, faults, or is closed or dropped — started or not.

Fault semantics (fail closed): the injector is stepped per shard-group
at ``<fault_site>:shard<i>`` and per stream chunk at
``<fault_site>:stream``; a fault turns the whole group/stream into one
typed :class:`~repro.core.errors.TransportError` — never an altered
decision, never corrupted bytes.  DELAY charges the fault clock,
DUPLICATE is harmless (decisions are read-only; a duplicated chunk is
deduplicated by any sane transport, so we send once).

Determinism: construct with ``auto_dispatch=False`` and drive
:meth:`process_pending` yourself — same submissions + same fault plan
⇒ same responses, which is what the chaos batteries run.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Callable, Iterator, Sequence

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    CorruptMessage,
    MessageDropped,
    Overloaded,
    ReplicaUnavailable,
    StaleRead,
)
from repro.core.evaluator import Decision
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.gateway.admission import (
    AdmissionController,
    Clock,
    DeficitRoundRobin,
    TenantConfig,
)
from repro.gateway.stats import GatewayStats
from repro.gateway.streaming import (
    DEFAULT_CHUNK_SIZE,
    chunked,
    serialize_pieces,
)

#: FaultKind → the typed TransportError the shard-group or stream fails
#: with.
_FAULT_ERRORS = {
    FaultKind.CRASH: lambda site: ReplicaUnavailable(
        f"shard behind {site} is down"),
    FaultKind.DROP: lambda site: MessageDropped(
        f"batch to {site} lost in transit"),
    FaultKind.REORDER: lambda site: MessageDropped(
        f"batch to {site} arrived out of order and was discarded"),
    FaultKind.CORRUPT: lambda site: CorruptMessage(
        f"batch to {site} failed its frame checksum"),
    FaultKind.STALE_READ: lambda site: StaleRead(
        f"shard behind {site} served a lagging snapshot"),
}

#: Precedence when one step yields several fault events.
_FAULT_ORDER = (FaultKind.CRASH, FaultKind.CORRUPT, FaultKind.STALE_READ,
                FaultKind.DROP, FaultKind.REORDER)


class _Stream:
    """The async face of one admitted stream: its chunk generator,
    *primed* to its first yield, so that closing or dropping the stream
    — started or not — runs the ``finally`` that releases the pin.
    ``__anext__`` never awaits: a chunk costs no loop turn."""

    def __init__(self, chunks: Iterator[str]) -> None:
        next(chunks)
        self._chunks = chunks

    def __aiter__(self) -> "_Stream":
        return self

    async def __anext__(self) -> str:
        try:
            return next(self._chunks)
        except StopIteration:
            raise StopAsyncIteration from None

    async def aclose(self) -> None:
        self._chunks.close()


class AsyncRequestGateway:
    """Multi-tenant asyncio gateway over an authorizer.

    *engine* needs ``decide_batch(triples)`` (either implementation of
    :class:`~repro.core.evaluator.Authorizer`) and optionally
    ``shard_for_path(path)`` (absent → one shard-0 group); *store* is
    an optional snapshot store (``epochs`` + ``pool``, e.g.
    :class:`~repro.snap.xmlstore.SnapshotXmlDatabase`) that enables
    :meth:`stream` / :meth:`stream_document` and :meth:`write`.

    Requests are duck-typed: anything with ``triple()`` and ``path``
    (:class:`~repro.scale.gateway.Request` is the stock one).
    """

    def __init__(self, engine, store=None, *,
                 queue_limit: int = 4096,
                 high_watermark: int | None = None,
                 low_watermark: int | None = None,
                 batch_size: int = 64,
                 default_tenant: TenantConfig | None = TenantConfig(),
                 clock: Clock = time.perf_counter,
                 faults: FaultInjector | None = None,
                 fault_site: str = "agateway",
                 auto_dispatch: bool = True,
                 replicas=None,
                 durability: str | None = None) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        # Durability wiring (repro.wal): "fsync" asserts a durable
        # store, whose every write returns after its own fsync.
        if durability is not None:
            if durability != "fsync":
                raise ConfigurationError(
                    f"unknown durability mode {durability!r}; expected "
                    f"'fsync'")
            if not hasattr(store, "wal_sync"):
                raise ConfigurationError(
                    "durability= needs a durable store (one with "
                    "wal_sync()); wrap the store in repro.wal.durable")
        self.engine = engine
        self.store = store
        self.batch_size = batch_size
        self.default_tenant = default_tenant
        self.clock = clock
        self.faults = faults
        self.fault_site = fault_site
        self.auto_dispatch = auto_dispatch
        self.admission = AdmissionController(
            clock, queue_limit=queue_limit,
            high_watermark=high_watermark, low_watermark=low_watermark)
        self._known_tenants: set[str] = set()
        self.stats = GatewayStats()
        self._drr = DeficitRoundRobin()
        # A tick is scheduled or running.
        self._ticking = False
        self._closing = False
        self._started_at = clock()
        self._pool = getattr(store, "pool", None)
        self._stream_epochs = getattr(store, "epochs", None)
        # Replication wiring (repro.replica): a ReplicaRouter
        # (duck-typed ``get``/``put``/``session``) behind the
        # replica_read/replica_write key-value path.  The router's
        # calls are synchronous and bounded, so they run inline on the
        # loop like the snapshot read/write path does.
        self.replicas = replicas
        self._shard_for_path = getattr(engine, "shard_for_path", None)
        # Routers exposing per-shard engines (EpochalShardRouter) let
        # the already-grouped batch skip the router's own re-partition
        # — decide_batch goes straight to the shard's engine.
        self._shard_engine = (
            engine.engine
            if self._shard_for_path is not None
            and callable(getattr(engine, "engine", None)) else None)

    # -- tenants -----------------------------------------------------------

    def register(self, tenant: str,
                 config: TenantConfig | None = None) -> TenantConfig:
        """Register *tenant* (or re-register with a new contract)."""
        config = config if config is not None else self.default_tenant
        if config is None:
            raise ConfigurationError(
                f"no config for tenant {tenant!r} and no default")
        self.admission.register(tenant, config)
        self._drr.register(tenant, config.quantum)
        self._known_tenants.add(tenant)
        return config

    # -- admission (never blocks) ------------------------------------------

    def _admit(self, tenant: str, amount: float = 1.0) -> float:
        """Charge *tenant* one admission decision worth *amount*
        requests, or raise the typed refusal.  Returns the clock
        reading admission used: the requests' submit time."""
        if self._closing:
            raise AdmissionRejected("gateway is shutting down")
        if tenant not in self._known_tenants:
            self.register(tenant)
        now = self.clock()
        try:
            self.admission.admit(tenant, self._drr.pending(), amount,
                                 now=now, drain_rate=self._drain_rate)
        except Overloaded:
            self.stats.shed += 1
            raise
        except AdmissionRejected:
            self.stats.rejected += 1
            raise
        return now

    def submit_nowait(self, tenant: str, request) -> asyncio.Future:
        """Admit *request* for *tenant* or raise the typed refusal.

        Returns a future resolving to the :class:`Decision` (or the
        typed transport error a fault converted its batch into).
        """
        now = self._admit(tenant)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._drr.push(tenant, (request, future, now))
        self.stats.admitted += 1
        if not self._ticking and self.auto_dispatch:
            self._ticking = True
            loop.call_soon(self._tick, loop)
        return future

    def submit_batch_nowait(self, tenant: str,
                            requests: Sequence) -> asyncio.Future:
        """Admit *requests* as one unit — one admission decision
        charging ``len(requests)`` tokens, one future resolving to the
        decision list in submission order.  The cheap way to amortize
        admission over closed-loop batches."""
        if not requests:
            raise ConfigurationError("empty batch")
        now = self._admit(tenant, amount=float(len(requests)))
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in requests]
        for request, future in zip(requests, futures):
            self._drr.push(tenant, (request, future, now))
        self.stats.admitted += len(requests)
        # Same wake-up as submit_nowait, repeated here rather than
        # shared so the per-request path pays for no extra call.
        if not self._ticking and self.auto_dispatch:
            self._ticking = True
            loop.call_soon(self._tick, loop)
        return asyncio.gather(*futures)

    async def submit(self, tenant: str, request) -> Decision:
        """Admit and await the decision in one call."""
        return await self.submit_nowait(tenant, request)

    def pending(self) -> int:
        return self._drr.pending()

    def _drain_rate(self, now: float) -> float:
        """Requests/s served from construction to *now* — the
        denominator of the watermark Retry-After hint.  Cumulative on
        purpose: it is deterministic under a manual clock and smooth
        under a real one."""
        elapsed = max(now - self._started_at, 1e-3)
        return self.stats.completed / elapsed

    # -- the tick ----------------------------------------------------------

    def _tick(self, loop: asyncio.AbstractEventLoop) -> None:
        """One loop callback per batch: cut a DRR batch and decide it,
        then schedule the next tick while work remains."""
        # Once closing, close() owns whatever is still queued.
        batch = [] if self._closing else self._drr.take(self.batch_size)
        if not batch:
            self._ticking = False
            return
        self._run(batch)
        if self._drr.pending():
            loop.call_soon(self._tick, loop)
        else:
            self._ticking = False

    def _run(self, batch: list) -> None:
        """Account one dequeued batch's queue wait, then decide it: the
        one per-batch step of the tick, :meth:`process_pending` and
        :meth:`close`.  A :meth:`_decide` that raises fails the batch
        closed."""
        now = self.clock()
        waits = [now - submitted_at for _, _, submitted_at in batch]
        stats = self.stats
        stats.batches += 1
        stats.queue_wait_s += sum(waits)
        stats.stage("queue_wait").record_many(waits)
        try:
            self._decide(batch)
        except Exception as error:
            self._fail_unresolved(batch, error)

    def _fail_unresolved(self, batch: list, error: Exception) -> None:
        """A :meth:`_decide` that raised: every future it left pending
        fails closed with its error."""
        unresolved = [future for _, future, _ in batch if not future.done()]
        self.stats.failed += len(unresolved)
        for future in unresolved:
            future.set_exception(error)

    def _decide(self, batch: list) -> None:
        """Resolve every future of one dequeued batch: group by shard
        and decide each group inline."""
        shard_for_path = self._shard_for_path
        groups: dict[int, list] = {}
        if shard_for_path is None:
            groups[0] = batch
        else:
            for entry in batch:
                groups.setdefault(shard_for_path(entry[0].path),
                                  []).append(entry)

        stats = self.stats
        faults = self.faults
        for shard in sorted(groups) if len(groups) > 1 else groups:
            group = groups[shard]
            error = (None if faults is None
                     else self._fault_for("shard", shard))
            if error is None:
                started = self.clock()
                decide_batch = (
                    self._shard_engine(shard).decide_batch
                    if self._shard_engine is not None
                    else self.engine.decide_batch)
                try:
                    decisions = decide_batch(
                        [request.triple() for request, _, _ in group])
                except Exception as exc:
                    error = exc
                else:
                    finished = self.clock()
                    stats.evaluate_s += finished - started
                    stats.completed += len(group)
                    stats.stage("evaluate").record(finished - started)
                    stats.latency.record_many(
                        [finished - submitted_at
                         for _, _, submitted_at in group])
                    for (_, future, _), decision in zip(group, decisions):
                        if not future.done():
                            future.set_result(decision)
            if error is not None:
                stats.failed += len(group)
                for _, future, _ in group:
                    if not future.done():
                        future.set_exception(error)

    def _fault_for(self, where: str,
                   index: int | str = "") -> Exception | None:
        """Step the injector at ``<fault_site>:<where><index>`` (named
        only when there is one); worst event wins.  DELAY has already
        charged the fault clock inside ``step``; DUPLICATE is harmless
        for read-only work.  CRASH is the only kind that maps to
        :class:`ReplicaUnavailable`."""
        if self.faults is None:
            return None
        site = f"{self.fault_site}:{where}{index}"
        events = self.faults.step(site)
        for kind in _FAULT_ORDER:
            if any(event.kind is kind for event in events):
                return _FAULT_ERRORS[kind](site)
        return None

    # -- deterministic mode ------------------------------------------------

    async def process_pending(self) -> int:
        """Drain and evaluate everything queued, in DRR order, on the
        caller's task — the deterministic path (``auto_dispatch=False``):
        same submissions + same fault plan ⇒ same responses."""
        processed = 0
        while self._drr.pending():
            batch = self._drr.take(self.batch_size)
            self._run(batch)
            processed += len(batch)
        return processed

    # -- streaming dissemination -------------------------------------------

    def stream(self, tenant: str, resolve: Callable,
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> AsyncIterator[str]:
        """Open a chunked stream of ``resolve(snapshot)``'s bytes.

        Admission is charged and the store epoch pinned *here*, before
        the first chunk is awaited — a stream observes exactly the
        snapshot that was current when it was admitted, no matter how
        many epochs writers publish while it drains.  *resolve* maps
        the pinned snapshot to a frozen document or element.
        """
        if self._stream_epochs is None:
            raise ConfigurationError(
                "gateway has no snapshot store; pass store= to stream")
        self._admit(tenant)
        snapshot = self._stream_epochs.acquire()
        try:
            node = resolve(snapshot)
            root = getattr(node, "root", node)
        except BaseException:
            self._stream_epochs.release(snapshot)
            raise
        with self.stats._lock:
            self.stats.admitted += 1
            self.stats.streams += 1
            self.stats.snapshot_reads += 1
        return _Stream(self._stream_chunks(snapshot, root, chunk_size))

    def stream_document(self, tenant: str, collection: str, doc_id: str,
                        chunk_size: int = DEFAULT_CHUNK_SIZE
                        ) -> AsyncIterator[str]:
        """Stream one stored document's canonical serialization."""
        return self.stream(
            tenant, lambda snapshot: snapshot.document(collection, doc_id),
            chunk_size=chunk_size)

    def _stream_chunks(self, snapshot, root,
                       chunk_size: int) -> Iterator[str]:
        admitted_at, sent, completed = self.clock(), 0, False
        faulty = self.faults is not None
        try:
            yield ""  # where _Stream parks it: the finally is now armed
            for chunk in chunked(serialize_pieces(root, self._pool),
                                 chunk_size):
                if faulty:
                    error = self._fault_for("stream")
                    if error is not None:
                        # Fail closed: a typed error, never garbled bytes.
                        raise error
                sent += 1
                yield chunk
            completed = True
        finally:
            with self.stats._lock:
                self.stats.stream_chunks += sent
                if completed:
                    self.stats.completed += 1
                    self.stats.stage("stream").record(
                        self.clock() - admitted_at)
                else:
                    self.stats.failed += 1
            self._stream_epochs.release(snapshot)

    # -- snapshot read/write (store side) ----------------------------------

    def read(self, fn):
        """Run ``fn(snapshot)`` against the pinned current store epoch."""
        if self._stream_epochs is None:
            raise ConfigurationError(
                "gateway has no snapshot store; pass store=")
        with self._stream_epochs.reading() as snapshot:
            result = fn(snapshot)
        with self.stats._lock:
            self.stats.snapshot_reads += 1
        return result

    def write(self, fn):
        """Apply ``fn(store)`` as one write and publish a new epoch;
        *store* is what the store's ``writer()`` block yields.

        Streams opened before this call keep their pinned snapshot;
        streams opened after it see the new epoch.
        """
        if self.store is None:
            raise ConfigurationError(
                "gateway has no snapshot store; pass store=")
        writer = getattr(self.store, "writer", None)
        if writer is not None:
            with writer() as store:
                result = fn(store)
        else:
            result = fn(self.store)
            publish = getattr(self.store, "publish", None)
            if publish is not None:
                publish()
        with self.stats._lock:
            self.stats.writes += 1
            self.stats.epochs_advanced += 1
        return result

    # -- the replicated key-value path (repro.replica) ---------------------

    def replica_session(self):
        """A read-your-writes session over the replica router."""
        if self.replicas is None:
            raise ConfigurationError(
                "gateway has no replica router; pass replicas=")
        return self.replicas.session()

    def replica_read(self, key: str, session=None):
        """Read *key* from any caught-up replica at or above the
        session's watermark floor (read-your-writes)."""
        if self.replicas is None:
            raise ConfigurationError(
                "gateway has no replica router; pass replicas=")
        value = self.replicas.get(key, session=session)
        with self.stats._lock:
            self.stats.replica_reads += 1
        return value

    def replica_write(self, key: str, value: str, session=None) -> int:
        """Write through the shard primary (acknowledged at ≥1 read
        replica); returns the version and raises the session floor."""
        if self.replicas is None:
            raise ConfigurationError(
                "gateway has no replica router; pass replicas=")
        version = self.replicas.put(key, value, session=session)
        with self.stats._lock:
            self.stats.replica_writes += 1
        return version

    # -- lifecycle ---------------------------------------------------------

    async def close(self, drain: bool = True) -> None:
        """Stop admitting; by default finish what was admitted."""
        self._closing = True
        if drain:
            await self.process_pending()
        else:
            for request, future, _ in self._drr.drain_all():
                if not future.done():
                    future.set_exception(AdmissionRejected(
                        "gateway closed before evaluation"))

    async def __aenter__(self) -> "AsyncRequestGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

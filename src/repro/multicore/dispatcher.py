"""The multicore front end: admission here, evaluation per core.

:class:`MulticoreGateway` is the process tier of the one serving
pipeline: a subclass of
:class:`~repro.gateway.core.AsyncRequestGateway` that inherits the
tenant registry, admission, the DRR per-batch tick, queue-wait
accounting, the fault → typed-error mapping, dispatcher-local
streaming, ``read``/``write`` and ``close``, and overrides only what a
process boundary changes — how one dequeued batch is decided, remote
streaming, the start/seed handshake, delta broadcast and worker
retirement.  The dispatcher process keeps everything that must be
globally consistent — admission, the authoritative
:class:`~repro.gateway.engine.EpochalShardRouter`, delta versioning,
stats — and ships evaluation to N worker processes, each running its
own asyncio loop over the shards ``{s : s % N == i}``.

Lifecycle:

* :meth:`start` forks the workers (``fork`` start method: the compiled
  router and snapshot store are inherited, never pickled) and runs the
  seed handshake — each worker recomputes its shards' compiled-table
  digests and must match the dispatcher's
  :class:`~repro.multicore.image.PolicyImage`, else
  :class:`~repro.core.errors.SeedMismatch` (fail closed);
* policy changes go through :meth:`apply_delta`: applied to the local
  authority first, then broadcast as a versioned
  :class:`~repro.multicore.image.PolicyDelta`; workers enforce the
  replica tier's contiguity discipline, so a worker that missed a
  version answers typed and is retired
  (:class:`~repro.core.errors.WorkerDiverged`) instead of serving
  stale policy;
* requests are admitted and batched per tick by the inherited
  pipeline; :meth:`_decide` groups each batch by owning worker and
  ships it as pickle-5 frames; subjects are interned per worker (first
  frame carries the object, later frames an int key); decisions come
  back as compact id tuples and are surfaced as
  :class:`RemoteDecision` — attribute-compatible with
  :class:`~repro.core.evaluator.Decision` for serialization, so the
  byte-identity oracle runs the same code against both tiers.

Fault semantics: the injector is stepped per dispatched frame at
``mcore:worker<i>`` through the inherited mapping; a CRASH (or
:meth:`kill_worker`) retires the worker and every later request owned
by it fails typed :class:`~repro.core.errors.ReplicaUnavailable` —
degraded, never wrong.  ``workers=0`` runs the same worker code
in-process on the caller's task with every message still round-tripped
through the frame codec: the deterministic mode the handshake tests
and the chaos battery drive.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import time
from collections import deque
from typing import AsyncIterator, Sequence

from repro.core.errors import (
    ConfigurationError,
    CorruptMessage,
    ReplicaUnavailable,
    SeedMismatch,
    WorkerDiverged,
)
from repro.faults.injector import FaultInjector
from repro.gateway.admission import Clock, TenantConfig
from repro.gateway.core import AsyncRequestGateway
from repro.gateway.engine import EpochalShardRouter
from repro.gateway.streaming import DEFAULT_CHUNK_SIZE
from repro.multicore.frames import (
    read_frame_async,
    roundtrip,
    write_frame_async,
)
from repro.multicore.image import PolicyDelta, PolicyImage
from repro.multicore.worker import (
    ShardWorker,
    worker_process_main,
)


class _PolicyRef:
    """Id-only stand-in for a Policy in a remote decision."""

    __slots__ = ("policy_id",)

    def __init__(self, policy_id: int) -> None:
        self.policy_id = policy_id

    def __repr__(self) -> str:
        return f"Policy#{self.policy_id}"


class RemoteDecision:
    """A worker's decision, reconstructed dispatcher-side.

    Shaped like :class:`~repro.core.evaluator.Decision` where it
    matters for serialization and verdict checks: ``granted``,
    ``reason``, ``determining.policy_id``, ``applicable[i].policy_id``.
    """

    __slots__ = ("granted", "determining", "applicable", "reason")

    def __init__(self, granted: bool, determining_id: int | None,
                 applicable_ids: Sequence[int], reason: str) -> None:
        self.granted = granted
        self.determining = (_PolicyRef(determining_id)
                            if determining_id is not None else None)
        self.applicable = tuple(_PolicyRef(i) for i in applicable_ids)
        self.reason = reason

    def __bool__(self) -> bool:
        return self.granted

    def __repr__(self) -> str:
        verdict = "grant" if self.granted else "deny"
        return f"RemoteDecision({verdict}: {self.reason})"


def decision_from_wire(wire: tuple) -> RemoteDecision:
    granted, determining_id, applicable_ids, reason = wire
    return RemoteDecision(granted, determining_id, applicable_ids, reason)


class _ProcessChannel:
    """One forked worker: socket, FIFO reply matching, liveness."""

    in_process = False

    def __init__(self, process, sock) -> None:
        self.process = process
        self.sock = sock
        self.reader = None
        self.writer = None
        self.dead: Exception | None = None
        self._futures: deque = deque()
        self._reader_task: asyncio.Task | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            sock=self.sock)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                reply = await read_frame_async(self.reader)
                if self._futures:
                    future = self._futures.popleft()
                    if not future.done():
                        future.set_result(reply)
        except (asyncio.IncompleteReadError, ConnectionError,
                CorruptMessage) as exc:
            self.dead = exc
            while self._futures:
                future = self._futures.popleft()
                if not future.done():
                    future.set_exception(ReplicaUnavailable(
                        f"worker channel failed: {exc}"))

    async def request(self, message: tuple) -> tuple:
        if self.dead is not None:
            raise ReplicaUnavailable(
                f"worker channel is down: {self.dead}")
        future = asyncio.get_running_loop().create_future()
        self._futures.append(future)
        await write_frame_async(self.writer, message)
        return await future

    def kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    async def close(self) -> None:
        if self.dead is None and self.writer is not None:
            try:
                await self.request(("stop",))
            except (ReplicaUnavailable, ConnectionError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception) as exc:
                # Teardown path: channel errors were already surfaced
                # to their pending futures.
                del exc
        if self.writer is not None:
            self.writer.close()
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.kill()
                self.process.join(timeout=5)


class _InProcessChannel:
    """``workers=0``: the worker object runs on the caller's task, with
    every message and reply still round-tripped through the frame codec
    so anything that would not survive the wire fails here too."""

    in_process = True

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.dead: Exception | None = None

    async def request(self, message: tuple) -> tuple:
        if self.dead is not None:
            raise ReplicaUnavailable(
                f"worker channel is down: {self.dead}")
        reply = await self.worker.handle(roundtrip(message))
        return roundtrip(reply)

    def kill(self) -> None:
        self.dead = ReplicaUnavailable("worker killed")

    async def close(self) -> None:
        self.dead = self.dead or ReplicaUnavailable("gateway closed")


class MulticoreGateway(AsyncRequestGateway):
    """Process-per-core serving over digest-verified compiled shards.

    *policies* is an iterable of :class:`~repro.core.policy.Policy` (or
    a prebuilt compiled :class:`EpochalShardRouter`); *store* is an
    optional snapshot store enabling :meth:`stream_document`.
    ``workers=N`` forks N processes at :meth:`start`; ``workers=0``
    creates ``logical_workers`` in-process workers instead — the
    deterministic mode (same submissions + same fault plan ⇒ same
    responses), which still exercises the frame codec on every hop.
    """

    def __init__(self, policies, store=None, *,
                 workers: int = 2,
                 logical_workers: int = 2,
                 shard_count: int | None = None,
                 queue_limit: int = 4096,
                 high_watermark: int | None = None,
                 low_watermark: int | None = None,
                 batch_size: int = 64,
                 default_tenant: TenantConfig | None = TenantConfig(),
                 clock: Clock = time.perf_counter,
                 faults: FaultInjector | None = None,
                 fault_site: str = "mcore",
                 auto_dispatch: bool = True,
                 worker_router: EpochalShardRouter | None = None) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        self.worker_count = workers if workers > 0 else logical_workers
        if self.worker_count < 1:
            raise ConfigurationError("need at least one logical worker")
        self.in_process = workers == 0
        if hasattr(policies, "shard_for_path"):
            router = policies
            self._policy_list = list(router.policies())
        else:
            self._policy_list = list(policies)
            router = EpochalShardRouter.from_policies(
                self._policy_list,
                shard_count=shard_count or max(4, self.worker_count))
        super().__init__(
            router, store, queue_limit=queue_limit,
            high_watermark=high_watermark, low_watermark=low_watermark,
            batch_size=batch_size, default_tenant=default_tenant,
            clock=clock, faults=faults, fault_site=fault_site,
            auto_dispatch=auto_dispatch)
        self.router = router
        self._started = False
        self._delta_version = 0
        self._batch_counter = 0
        self._stream_counter = 0
        self._store_dirty = False
        # The in-process mode evaluates against a *separate* router
        # built from the same policies — the stand-in for the fork
        # image — so local delta application cannot double-apply.
        self._worker_router = worker_router
        self._channels: list = []
        self._retired: list[Exception | None] = []
        # Subject interning: id(subject) -> (key, strong ref); the ref
        # pins the id so it cannot be recycled under us.
        self._subject_keys: dict[int, tuple[int, object]] = {}
        self._acked_subjects: list[set[int]] = []

    # -- topology ----------------------------------------------------------

    def worker_for_shard(self, shard: int) -> int:
        return shard % self.worker_count

    def owned_shards(self, worker_id: int) -> tuple[int, ...]:
        return tuple(s for s in range(self.router.shard_count)
                     if s % self.worker_count == worker_id)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "MulticoreGateway":
        """Fork (or instantiate) the workers and run the seed
        handshake; raises :class:`SeedMismatch` on any digest
        disagreement."""
        if self._started:
            return self
        if self.in_process:
            if self._worker_router is None:
                self._worker_router = EpochalShardRouter.from_policies(
                    self._policy_list,
                    shard_count=self.router.shard_count)
            for worker_id in range(self.worker_count):
                worker = ShardWorker(
                    worker_id, self._worker_router,
                    self.owned_shards(worker_id), store=self.store)
                self._channels.append(_InProcessChannel(worker))
        else:
            context = multiprocessing.get_context("fork")
            for worker_id in range(self.worker_count):
                parent_sock, child_sock = socket.socketpair()
                worker = ShardWorker(
                    worker_id, self.router,
                    self.owned_shards(worker_id), store=self.store)
                process = context.Process(
                    target=worker_process_main,
                    args=(child_sock, worker),
                    name=f"mcore-worker{worker_id}", daemon=True)
                process.start()
                child_sock.close()
                channel = _ProcessChannel(process, parent_sock)
                await channel.connect()
                self._channels.append(channel)
        self._retired = [None] * self.worker_count
        self._acked_subjects = [set() for _ in range(self.worker_count)]
        self._started = True
        await self._seed_all()
        return self

    async def _seed_all(self) -> None:
        for worker_id, channel in enumerate(self._channels):
            image = PolicyImage.of_router(
                self.router, self.owned_shards(worker_id),
                version=self._delta_version)
            reply = await channel.request(("seed", image))
            if reply[0] != "seed-ok":
                raise SeedMismatch(
                    f"worker {worker_id} failed the seed handshake: "
                    f"{reply[2] if len(reply) > 2 else reply}")

    async def close(self, drain: bool = True) -> None:
        await super().close(drain)
        for channel in self._channels:
            await channel.close()

    async def __aenter__(self) -> "MulticoreGateway":
        return await self.start()

    # -- admission ---------------------------------------------------------

    def _admit(self, tenant: str, amount: float = 1.0) -> float:
        if not self._started:
            raise ConfigurationError(
                "gateway not started; call await gateway.start() first")
        return super()._admit(tenant, amount)

    # -- deciding one batch across the process boundary --------------------

    async def _decide(self, batch: list) -> None:
        """Group one dequeued batch by owning worker; one frame each.
        A coroutine: the tick runs it as the one batch in flight."""
        groups: dict[int, list] = {}
        shard_for_path = self._shard_for_path
        for request, future, submitted_at in batch:
            shard = shard_for_path(request.path)
            groups.setdefault(self.worker_for_shard(shard), []).append(
                (shard, request, future, submitted_at))

        jobs = [self._evaluate_group(worker_id, groups[worker_id])
                for worker_id in sorted(groups)]
        if len(jobs) == 1:
            await jobs[0]
        else:
            await asyncio.gather(*jobs)

    def _intern(self, subject, new_subjects: dict, acked: set) -> int:
        entry = self._subject_keys.get(id(subject))
        if entry is None:
            key = len(self._subject_keys)
            self._subject_keys[id(subject)] = (key, subject)
        else:
            key = entry[0]
        if key not in acked:
            new_subjects[key] = subject
        return key

    async def _evaluate_group(self, worker_id: int, group: list) -> None:
        error = self._group_error(worker_id)
        reply = None
        if error is None:
            acked = self._acked_subjects[worker_id]
            new_subjects: dict[int, object] = {}
            entries = []
            for shard, request, _, _ in group:
                subject, action, path, payload = request.triple()
                key = self._intern(subject, new_subjects, acked)
                entries.append((shard, key, action, str(path), payload))
            self._batch_counter += 1
            frame = ("eval", self._batch_counter, tuple(entries),
                     new_subjects)
            sent_at = self.clock()
            try:
                reply = await self._channels[worker_id].request(frame)
            except ReplicaUnavailable as exc:
                self._retired[worker_id] = exc
                error = exc
            else:
                wall = self.clock() - sent_at
                error = self._reply_error(worker_id, reply)
                if error is None:
                    acked.update(new_subjects)
                    eval_s = reply[4]
                    finished = self.clock()
                    stats = self.stats
                    stats.evaluate_s += eval_s
                    stats.completed += len(group)
                    stats.stage("evaluate").record(eval_s)
                    stats.stage("ipc").record(max(wall - eval_s, 0.0))
                    stats.latency.record_many(
                        [finished - submitted_at
                         for _, _, _, submitted_at in group])
                    for (_, _, future, _), wire in zip(group, reply[3]):
                        if not future.done():
                            future.set_result(decision_from_wire(wire))
        if error is not None:
            self.stats.failed += len(group)
            for _, _, future, _ in group:
                if not future.done():
                    future.set_exception(error)

    def _group_error(self, worker_id: int) -> Exception | None:
        """Retirement, then injected faults — worst event wins."""
        retired = self._retired[worker_id]
        if retired is not None:
            # Keep the retirement's own type: a diverged worker keeps
            # answering WorkerDiverged, a killed one ReplicaUnavailable.
            return retired
        error = self._fault_for("worker", worker_id)
        if isinstance(error, ReplicaUnavailable):
            # CRASH.  A crashed worker stays crashed: typed degradation
            # for everything it owned, byte-identical service from
            # everyone else.
            self._retired[worker_id] = error
            self._channels[worker_id].kill()
        return error

    def _reply_error(self, worker_id: int,
                     reply: tuple) -> Exception | None:
        if reply[0] in ("eval-ok", "stream-ok"):
            return None
        detail = reply[3] if len(reply) > 3 else reply
        if detail == "diverged":
            error: Exception = WorkerDiverged(
                f"worker {worker_id} missed a policy delta and refuses "
                "to serve stale authorization")
        elif detail == "unseeded":
            error = SeedMismatch(
                f"worker {worker_id} was asked to evaluate before its "
                "seed handshake completed")
        else:
            error = ReplicaUnavailable(
                f"worker {worker_id} replied {reply[0]}: {detail}")
        self._retired[worker_id] = error
        return error

    # -- policy administration (delta shipping) ----------------------------

    async def apply_delta(self, adds: Sequence = (),
                          removes: Sequence = ()) -> PolicyDelta:
        """Apply a policy change locally, then ship it to every live
        worker as one contiguous versioned delta.

        *removes* may hold Policy objects or policy ids.  Digests are
        re-verified from every ack; disagreement raises
        :class:`SeedMismatch`, a version gap answers
        :class:`WorkerDiverged` and retires the worker.
        """
        if not self._started:
            raise ConfigurationError(
                "gateway not started; call await gateway.start() first")
        remove_ids = tuple(
            p if isinstance(p, int) else p.policy_id for p in removes)
        # Local authority first: removes, then adds — the worker-side
        # order, so digests re-converge.
        if remove_ids:
            wanted = set(remove_ids)
            for policy in [p for p in self.router.policies()
                           if p.policy_id in wanted]:
                self.router.remove(policy)
        for policy in adds:
            self.router.add(policy)
        self._delta_version += 1
        delta = PolicyDelta(self._delta_version, tuple(adds), remove_ids)
        with self.stats._lock:
            self.stats.writes += 1
            self.stats.epochs_advanced += 1
        await self._broadcast_delta(delta)
        return delta

    async def _broadcast_delta(self, delta: PolicyDelta) -> None:
        for worker_id, channel in enumerate(self._channels):
            if self._retired[worker_id] is not None:
                continue
            try:
                reply = await channel.request(("delta", delta))
            except ReplicaUnavailable as exc:
                self._retired[worker_id] = exc
                continue
            if reply[0] == "delta-gap":
                error = WorkerDiverged(
                    f"worker {worker_id} is at watermark {reply[3]} and "
                    f"refused non-contiguous delta v{reply[2]}")
                self._retired[worker_id] = error
                raise error
            if reply[0] != "delta-ok":
                raise ConfigurationError(
                    f"unexpected delta reply {reply[0]!r}")
            expected = PolicyImage.of_router(
                self.router, self.owned_shards(worker_id),
                version=delta.version)
            mismatches = expected.mismatches(reply[3])
            if mismatches:
                error = SeedMismatch(
                    f"worker {worker_id} diverged after delta "
                    f"v{delta.version}: {mismatches}")
                self._retired[worker_id] = error
                raise error

    async def add_policy(self, policy) -> PolicyDelta:
        return await self.apply_delta(adds=(policy,))

    async def remove_policy(self, policy) -> PolicyDelta:
        return await self.apply_delta(removes=(policy,))

    # -- chaos -------------------------------------------------------------

    def kill_worker(self, worker_id: int) -> None:
        """Kill one worker (the chaos overlay's hammer): its process
        dies and every request owned by it from now on fails typed
        :class:`ReplicaUnavailable`; other workers are untouched."""
        error = ReplicaUnavailable(f"worker {worker_id} was killed")
        self._retired[worker_id] = error
        self._channels[worker_id].kill()

    def live_workers(self) -> list[int]:
        return [i for i in range(self.worker_count)
                if self._retired[i] is None]

    # -- streaming dissemination -------------------------------------------

    def stream_document(self, tenant: str, collection: str, doc_id: str,
                        chunk_size: int = DEFAULT_CHUNK_SIZE
                        ) -> AsyncIterator[str]:
        """Stream one stored document's canonical serialization.

        Admission is charged here.  The frame goes to the worker owning
        the document's shard; its cached encoded chunks ride back out
        of band (no per-request payload copy) and are yielded exactly
        as the single-process gateway would.  After a dispatcher-side
        store write (fork-mode workers cannot see it, and every
        worker's chunk cache predates it) the stream is the inherited
        dispatcher-local one instead — correct first, accelerated
        second.
        """
        if self._store_dirty:
            return super().stream_document(tenant, collection, doc_id,
                                           chunk_size)
        if self.store is None:
            raise ConfigurationError(
                "gateway has no snapshot store; pass store= to stream")
        self._admit(tenant)
        with self.stats._lock:
            self.stats.admitted += 1
            self.stats.streams += 1
            self.stats.snapshot_reads += 1
        shard = self.router.shard_for_path(f"{collection}/{doc_id}")
        return self._stream_remote(self.worker_for_shard(shard),
                                   collection, doc_id, chunk_size)

    async def _stream_remote(self, worker_id: int, collection: str,
                             doc_id: str,
                             chunk_size: int) -> AsyncIterator[str]:
        started = self.clock()
        error = self._group_error(worker_id)
        reply = None
        if error is None:
            self._stream_counter += 1
            frame = ("stream", self._stream_counter, collection, doc_id,
                     chunk_size)
            try:
                reply = await self._channels[worker_id].request(frame)
            except ReplicaUnavailable as exc:
                self._retired[worker_id] = exc
                error = exc
            else:
                error = self._reply_error(worker_id, reply)
        if error is not None:
            with self.stats._lock:
                self.stats.failed += 1
            raise error
        chunks = reply[3]
        with self.stats._lock:
            self.stats.stream_chunks += len(chunks)
            self.stats.completed += 1
            self.stats.stage("stream").record(self.clock() - started)
        for chunk in chunks:
            yield bytes(chunk).decode()

    def write(self, fn):
        """Apply ``fn(store)`` as one write and publish a new epoch.
        Workers keep their fork-time corpus and cached chunks, so
        streaming falls back to dispatcher-local service afterwards."""
        result = super().write(fn)
        self._store_dirty = True
        return result

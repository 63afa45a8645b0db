"""The four workloads: inputs, serving stacks, request drivers, oracles.

Every input — policies, subjects, documents, request sequences, edit
texts — comes from one ``random.Random(seed)``; the program under test
sees only those inputs.  Each workload drives the serving path through
the gateway's public calls and checks what comes back; a typed refusal
or a wrong answer is a failed operation, never a crash.

Sizes are constants here (not options): a run with other sizes is
another benchmark.  ``quick=True`` shrinks corpora for smoke runs and
the result is marked as such.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import gc
import hashlib
import itertools
import random

from repro.core.credentials import (
    attribute_equals,
    has_credential,
    has_role,
)
from repro.core.errors import ReproError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.datagen import generate_population, hospital_corpus
from repro.datagen.documents import DEPARTMENTS
from repro.datagen.population import ROLE_NAMES
from repro.gateway import (
    AsyncRequestGateway,
    EpochalShardRouter,
    TenantConfig,
)
from repro.replica.router import ReplicaRouter
from repro.scale.gateway import Request
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal import DurableXmlStore, MemVfs
from repro.xmldb.serializer import serialize

from harness import perf_counter, until
from tracing import (
    NullTracer,
    TracedEpochs,
    TracedReplicas,
    TracedRouter,
    TracedStore,
    TracedVfs,
)

#: Eight literal path heads that land on all four authorization shards
#: (``datagen``'s single ``hospital/`` head would load one).
HEADS = ("hospital", "clinic", "lab", "pharmacy",
         "billing", "research", "archive", "admin")
SHARDS = 4
ZIPF_S = 1.1
POLICIES = 400
RECORDS_PER_HEAD = 60
LEAVES = ("name", "ssn", "department", "diagnosis", "treatment",
          "billing", "billing/amount", "billing/insurer",
          "visit", "visit/date", "visit/notes")
#: Fields every generated record has, so every edit path resolves.
EDIT_FIELDS = ("name", "ssn", "department", "diagnosis", "treatment")
RECORDS_PER_DOCUMENT = 40
EDITS_PER_TXN = 8
COLLECTION = "hospital"
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: A contract none of the fixed rates below comes near, so a refusal
#: is the program shedding, not the benchmark under-provisioning.
TENANT = TenantConfig(rate=1e6, burst=8192.0)
#: Documents loaded between two set-up laps (~60 ms).
LOAD_LAP = 8
#: Deep enough that only a host stall of seconds, not the open loop
#: catching up after one of tens of milliseconds, reaches the watermark.
QUEUE_LIMIT = 65_536
#: Decisions replayed through the cache-free interpreter: 1 in 64.
DECISION_SAMPLE = 64
#: Streamed bodies checked: 1 in 8 reads.
BODY_SAMPLE = 8


def zipf_cumulative(count: int) -> list[float]:
    return list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(count)))


def build_policies(rng: random.Random, documents: bool) -> list:
    """400 role/credential policies over the eight heads' records, plus
    (for the document workloads) role grants on each head's documents
    so that every generated read and write is authorized."""
    policies = []
    for index in range(POLICIES):
        head = HEADS[index % len(HEADS)]
        resource = (f"{head}/records/"
                    f"r{rng.randrange(1, RECORDS_PER_HEAD + 1)}/**")
        roll = rng.random()
        if roll < 0.5:
            expression = has_role(rng.choice(ROLE_NAMES))
        elif roll < 0.8:
            expression = attribute_equals(
                "physician", "department", rng.choice(DEPARTMENTS))
        else:
            expression = has_credential(
                rng.choice(["physician", "researcher", "insurer"]))
        make = deny if rng.random() < 0.15 else grant
        policies.append(make(expression, Action.READ, resource))
    if documents:
        for head in HEADS:
            for role in ROLE_NAMES:
                for action in (Action.READ, Action.WRITE):
                    policies.append(grant(has_role(role), action,
                                          f"{head}/docs/**"))
    return policies


@dataclasses.dataclass
class Stack:
    """One built serving stack (what set-up time is the time of).

    In a traced run ``engine``, ``store`` and ``replicas`` are the
    timing proxies; they forward everything else to the real objects.
    """

    engine: object                 # EpochalShardRouter
    build_s: float
    store: object = None           # DurableXmlStore
    vfs: object = None             # the MemVfs under the store's log
    replicas: object = None        # ReplicaRouter
    load_s: float = 0.0


class Workload:
    """Shared machinery; subclasses define inputs and drivers."""

    name = ""
    closed_ops = 0
    open_ops = 0
    open_rate = 0.0
    subject_count = 200
    documents = 0
    pool_fragments = 0
    uses_store = True
    #: Untimed closed bursts (of 16 slices' requests each) before the
    #: first timed slice: caches fill, lazy tables populate, the WAL
    #: flusher's linger estimate settles.
    warmup_bursts = 1
    #: Reads also fetch the document's replica stamp under the session.
    reads_replica = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(seed)
        self.quick = quick
        self.tracer = NullTracer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        if quick and self.uses_store:
            self.documents = max(8, self.documents // 4)
        self.policies = build_policies(self.rng, self.uses_store)
        population = generate_population(self.subject_count,
                                         seed=self.rng.randrange(1 << 30))
        self.subjects = [population.get(f"user{index:05d}")
                         for index in range(self.subject_count)]
        self.rng.shuffle(self.subjects)
        self.subject_cum = zipf_cumulative(len(self.subjects))
        if self.uses_store:
            self._build_documents()

    def _build_documents(self) -> None:
        base = self.rng.randrange(1 << 30)
        self.doc_ids = [f"doc-{index:04d}"
                        for index in range(self.documents)]
        self.doc_texts = [
            serialize(hospital_corpus(RECORDS_PER_DOCUMENT,
                                      seed=base + index, name=doc_id))
            for index, doc_id in enumerate(self.doc_ids)]
        order = list(range(self.documents))
        self.rng.shuffle(order)
        self.doc_order = order
        # Popularity rank r is under head r mod 8, whatever the seed:
        # the seed picks which document is hot, not how much of the
        # load each authorization shard carries.
        self.doc_paths = [""] * self.documents
        for rank, doc in enumerate(order):
            self.doc_paths[doc] = (f"{HEADS[rank % len(HEADS)]}/docs/"
                                   f"{self.doc_ids[doc]}")
        self.doc_cum = zipf_cumulative(self.documents)
        self.edit_serial = 0
        self.reset_served_state()

    def reset_served_state(self) -> None:
        """Forget what was written: the next stack starts from the
        generated corpus again."""
        #: doc index -> {node path: text}: acknowledged before this round.
        self.edit_base: dict[int, dict[str, str]] = {}
        #: doc index -> [(node path, text)] acknowledged in this round,
        #: in order; a sampled read records how long it was at the time.
        self.edit_log: dict[int, list[tuple[str, str]]] = {}
        #: doc index -> last acknowledged replica stamp.
        self.stamps: dict[int, str] = {}
        self.samples: list = []
        self.recent_writes: collections.deque = collections.deque(maxlen=4)
        self.user_bytes = 0
        self.transactions = 0

    # -- failure accounting ---------------------------------------------------

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(why)

    def note(self, *parts: object) -> None:
        """Fold a generated input into the request-list digest."""
        self.digest.update(repr(parts).encode())

    # -- set-up (timed by the harness) ------------------------------------------

    def setup(self, tracer=None, lap=lambda: None) -> Stack:
        """Build the serving stack; *lap* marks set-up boundaries."""
        started = perf_counter()
        router = EpochalShardRouter.from_policies(self.policies,
                                                  shard_count=SHARDS)
        stack = Stack(router, perf_counter() - started)
        lap()
        if tracer is not None:
            stack.engine = TracedRouter(router, tracer)
        if not self.uses_store:
            return stack
        started = perf_counter()
        # The intern pool is sized by the deployment; here to the
        # corpus, so the workload that is meant to exceed it does.
        inner = SnapshotXmlDatabase(
            pool=InternPool(fragment_capacity=self.pool_fragments),
            epochs=TracedEpochs(tracer) if tracer is not None else None)
        stack.vfs = MemVfs()
        stack.store = DurableXmlStore(
            inner, TracedVfs(stack.vfs, tracer) if tracer is not None
            else stack.vfs, durability="fsync")
        stack.store.create_collection(COLLECTION)
        with stack.store.writer():
            for index, (doc_id, text) in enumerate(
                    zip(self.doc_ids, self.doc_texts)):
                stack.store.insert(COLLECTION, doc_id, text)
                if not (index + 1) % LOAD_LAP:
                    lap()
        stack.load_s = perf_counter() - started
        stack.replicas = ReplicaRouter(shard_count=SHARDS)
        if tracer is not None:
            stack.store = TracedStore(stack.store, tracer)
            stack.replicas = TracedReplicas(stack.replicas, tracer)
        return stack

    def open_gateway(self, stack: Stack) -> AsyncRequestGateway:
        """The gateway over *stack* (call inside the running loop)."""
        gateway = AsyncRequestGateway(
            stack.engine, stack.store, replicas=stack.replicas,
            durability="fsync" if stack.store is not None else None,
            queue_limit=QUEUE_LIMIT, default_tenant=TENANT)
        for tenant in TENANTS:
            gateway.register(tenant)
        self.stack = stack
        if stack.store is not None:
            self.reset_served_state()
            self.session = gateway.replica_session()
            # What loading the corpus put through the log, so the
            # per-transaction WAL counts exclude it.
            self.wal_loaded = self.wal_counts(stack)
        return gateway

    @staticmethod
    def wal_counts(stack: Stack) -> dict[str, int]:
        totals = {"syncs": 0, "batches": 0, "records_flushed": 0,
                  "bytes_flushed": 0}
        for pipeline in stack.store.pipelines:
            for key in totals:
                totals[key] += getattr(pipeline.stats, key)
        return totals

    def close_stack(self, stack: Stack) -> None:
        """Stop the stack's flusher threads and free it now: a store is
        a reference cycle, and one left for the collector to find would
        sit in peak RSS beside its successor on some runs and not on
        others."""
        if stack.store is not None:
            stack.store.close()
        stack.engine = stack.store = stack.vfs = stack.replicas = None
        gc.collect()

    # -- request generation (untimed) -------------------------------------------

    def pick_subject(self):
        return self.rng.choices(self.subjects,
                                cum_weights=self.subject_cum)[0]

    def pick_document(self) -> int:
        return self.rng.choices(self.doc_order,
                                cum_weights=self.doc_cum)[0]

    def read_request(self) -> tuple:
        doc = self.pick_document()
        subject = self.pick_subject()
        self.note("r", subject.identity, doc)
        return ("r", doc,
                Request(subject, Action.READ, self.doc_paths[doc]))

    def write_request(self) -> tuple:
        doc = self.pick_document()
        subject = self.pick_subject()
        edits = []
        for _ in range(EDITS_PER_TXN):
            record = self.rng.randrange(1, RECORDS_PER_DOCUMENT + 1)
            field = self.rng.choice(EDIT_FIELDS)
            self.edit_serial += 1
            edits.append((f"/hospital/record[{record}]/{field}",
                          f"edit-{self.edit_serial:08d}"))
        self.note("w", subject.identity, doc, edits)
        return ("w", doc,
                Request(subject, Action.WRITE, self.doc_paths[doc]),
                tuple(edits))

    # -- drivers -----------------------------------------------------------------

    async def authorize(self, gateway, request) -> bool:
        """Admission → DRR → compiled decision for one request."""
        tracer = self.tracer
        span = tracer.begin("gateway.admit")
        future = gateway.submit_nowait(TENANTS[0], request)
        tracer.end(span)
        span = tracer.begin("gateway.loop")
        decision = await future
        tracer.end(span)
        return decision.granted

    async def read(self, gateway, item, sample: bool = False) -> None:
        _, doc, request = item
        tracer = self.tracer
        self.attempted += 1
        tracer.request += 1
        op = tracer.begin("client.op")
        try:
            if not await self.authorize(gateway, request):
                self.fail(f"read of {self.doc_ids[doc]} denied")
                return
            span = tracer.begin("gateway.stream")
            chunks = [chunk async for chunk in gateway.stream_document(
                TENANTS[0], COLLECTION, self.doc_ids[doc])]
            tracer.end(span)
            if self.reads_replica:
                self.check_stamp(doc, gateway.replica_read(
                    f"stamp:{doc}", self.session))
            if sample:
                self.samples.append(
                    (doc, chunks, len(self.edit_log.get(doc, ()))))
        except ReproError as exc:
            self.fail(f"read: {type(exc).__name__}: {exc}")
        finally:
            tracer.end(op)

    def check_stamp(self, doc: int, stamp) -> None:
        """One client, so the session floor is the last stamp it wrote:
        a replica read may return nothing older."""
        if stamp != self.stamps.get(doc):
            self.fail(f"replica read of {self.doc_ids[doc]} returned "
                      f"{stamp!r}, session wrote "
                      f"{self.stamps.get(doc)!r}")

    async def write(self, gateway, item) -> None:
        _, doc, request, edits = item
        tracer = self.tracer
        self.attempted += 1
        tracer.request += 1
        op = tracer.begin("client.op")
        try:
            if not await self.authorize(gateway, request):
                self.fail(f"write to {self.doc_ids[doc]} denied")
                return
            doc_id = self.doc_ids[doc]

            def transaction(store) -> None:
                for path, text in edits:
                    store.set_text(COLLECTION, doc_id, path, text)

            gateway.write(transaction)
            # Acknowledged at durability="fsync": from here on every
            # read of this document must show these texts.
            self.edit_log.setdefault(doc, []).extend(edits)
            self.recent_writes.append(doc)
            self.transactions += 1
            self.user_bytes += sum(len(text) for _, text in edits)
            stamp = f"{self.transactions:09d}"
            gateway.replica_write(f"stamp:{doc}", stamp, self.session)
            self.stamps[doc] = stamp
        except ReproError as exc:
            self.fail(f"write: {type(exc).__name__}: {exc}")
        finally:
            tracer.end(op)

    async def one(self, gateway, item, sample: bool = False) -> None:
        if item[0] == "r":
            await self.read(gateway, item, sample)
        else:
            await self.write(gateway, item)

    def requests(self, count: int) -> list:
        raise NotImplementedError

    async def closed(self, gateway, requests: list) -> None:
        """One client, next request after the previous completes."""
        for index, item in enumerate(requests):
            await self.one(gateway, item, not index % BODY_SAMPLE)

    async def open(self, gateway, requests: list, pace: float
                   ) -> tuple[list[float], list[float]]:
        """One client on a schedule: request *i* is due at tick
        ``int(i * 1000 / rate)`` and timed from that instant, so a
        stall is charged to every request it delays.  A tick is one
        millisecond of the reference host: *pace* (the last kernel time
        over ``CAL_REF_S``) stretches it on a slower host, so the
        offered load stays the same share of capacity."""
        latencies, lateness = [], []
        start = perf_counter() + 0.002
        tick = pace / 1000.0
        for index, item in enumerate(requests):
            due = start + int(index * 1000 / self.open_rate) * tick
            await until(due)
            lateness.append(perf_counter() - due)
            await self.one(gateway, item)
            latencies.append(perf_counter() - due)
        return latencies, lateness

    # -- oracles (between slices, untimed) -----------------------------------------

    def expected_texts(self, doc: int, upto: int) -> dict[str, str]:
        last = dict(self.edit_base.get(doc, ()))
        last.update(self.edit_log.get(doc, ())[:upto])
        return last

    def check_body(self, doc: int, body: str, upto: int) -> None:
        if not upto and doc not in self.edit_base:
            if body != self.doc_texts[doc]:
                self.fail(f"streamed body of {self.doc_ids[doc]} differs "
                          f"from the document inserted")
            return
        for path, text in self.expected_texts(doc, upto).items():
            if f">{text}<" not in body:
                self.fail(f"streamed body of {self.doc_ids[doc]} lacks "
                          f"acknowledged text {text} at {path}")
                return

    async def check(self, gateway) -> None:
        for doc, chunks, upto in self.samples:
            self.check_body(doc, "".join(chunks), upto)
        self.samples.clear()
        for doc, edits in self.edit_log.items():
            self.edit_base.setdefault(doc, {}).update(edits)
        self.edit_log.clear()

    def teardown(self, stack: Stack) -> dict[str, float]:
        """Recover the store from its log; it must equal the live one."""
        if stack.store is None:
            return {"recover_s": 0.0}
        live = stack.store.state_digest()
        stack.store.close()
        started = perf_counter()
        recovered, _ = DurableXmlStore.recover(stack.vfs)
        elapsed = perf_counter() - started
        try:
            if recovered.state_digest() != live:
                self.fail("recovered store digest differs from live store")
        finally:
            recovered.close()
        return {"recover_s": elapsed}


class AuthzHot(Workload):
    name = "authz_hot"
    closed_ops = 1_024
    open_ops = 500
    open_rate = 20_000.0
    wave = 256
    #: The compiled tables fill cell by cell under a Zipf tail: ~150k
    #: requests in, throughput still drifts, but by under 1% per 500k.
    warmup_bursts = 10
    uses_store = False
    subject_count = 2_000
    paths = 5_000

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        # Popularity rank r is under head r mod 8, whatever the seed
        # (see doc_paths); the seed draws the record and leaf.
        tails = [f"records/r{record}/{leaf}"
                 for record in range(1, RECORDS_PER_HEAD + 1)
                 for leaf in LEAVES]
        per_head = {head: self.rng.sample(tails, len(tails))
                    for head in HEADS}
        self.path_pool = [
            f"{HEADS[rank % len(HEADS)]}/"
            f"{per_head[HEADS[rank % len(HEADS)]][rank // len(HEADS)]}"
            for rank in range(self.paths)]
        self.path_cum = zipf_cumulative(self.paths)
        self.oracle = PolicyEvaluator(PolicyBase(self.policies))
        self.oracle_memo: dict[tuple[str, str], object] = {}
        self.samples = []

    def requests(self, count: int) -> list:
        subjects = self.rng.choices(self.subjects,
                                    cum_weights=self.subject_cum, k=count)
        paths = self.rng.choices(self.path_pool,
                                 cum_weights=self.path_cum, k=count)
        self.note([(s.identity, p) for s, p in zip(subjects, paths)])
        return [Request(subject, Action.READ, path)
                for subject, path in zip(subjects, paths)]

    async def collect(self, requests: list, futures: list) -> None:
        """Await one wave's decisions; keep 1 in 64 for the oracle."""
        for index, future in enumerate(futures):
            if future is None:
                continue
            try:
                decision = await future
            except ReproError as exc:
                self.fail(f"decision: {type(exc).__name__}: {exc}")
            else:
                if not index % DECISION_SAMPLE:
                    self.samples.append((requests[index], decision))

    def submit_wave(self, gateway, requests: list) -> list:
        futures = []
        for index, request in enumerate(requests):
            try:
                futures.append(gateway.submit_nowait(
                    TENANTS[index & 3], request))
            except ReproError as exc:
                self.fail(f"refused: {type(exc).__name__}: {exc}")
                futures.append(None)
        return futures

    async def closed(self, gateway, requests: list) -> None:
        """Waves of 256 in flight across four tenants."""
        tracer = self.tracer
        for offset in range(0, len(requests), self.wave):
            wave = requests[offset:offset + self.wave]
            self.attempted += len(wave)
            tracer.request += 1
            op = tracer.begin("client.op")
            span = tracer.begin("gateway.admit")
            futures = self.submit_wave(gateway, wave)
            tracer.end(span)
            span = tracer.begin("gateway.loop")
            await self.collect(wave, futures)
            tracer.end(span)
            tracer.end(op)

    async def open(self, gateway, requests: list, pace: float
                   ) -> tuple[list[float], list[float]]:
        """Many independent users: each tick releases the requests due
        in it, each timed from the tick's due instant."""
        latencies, lateness = [], []
        per_tick = max(1, round(self.open_rate / 1000.0))
        start = perf_counter() + 0.002
        released = []
        for tick, offset in enumerate(range(0, len(requests), per_tick)):
            due = start + tick * pace / 1000.0
            await until(due)
            # One loop turn per tick even when running late, so the
            # dispatcher drains while the generator catches up.
            await asyncio.sleep(0)
            lateness.append(perf_counter() - due)
            batch = requests[offset:offset + per_tick]
            self.attempted += len(batch)
            futures = self.submit_wave(gateway, batch)

            def done(_future, due=due) -> None:
                latencies.append(perf_counter() - due)

            for future in futures:
                if future is not None:
                    future.add_done_callback(done)
            released.append((batch, futures))
        for batch, futures in released:
            await self.collect(batch, futures)
        # Callbacks of the last futures run one loop turn later.
        await asyncio.sleep(0)
        return latencies, lateness

    async def check(self, gateway) -> None:
        for request, decision in self.samples:
            key = (request.subject.identity, request.path)
            expected = self.oracle_memo.get(key)
            if expected is None:
                expected = self.oracle_memo[key] = self.oracle.decide(
                    request.subject, request.action, request.path)
            if decision != expected:
                self.fail(f"decision for {key} differs from the "
                          f"interpreter's")
        self.samples.clear()


class ReadStream(Workload):
    name = "read_stream"
    closed_ops = 8
    open_ops = 6
    open_rate = 220.0
    documents = 128
    pool_fragments = 50_000
    reads_replica = False

    def requests(self, count: int) -> list:
        return [self.read_request() for _ in range(count)]


class WriteDurable(Workload):
    name = "write_durable"
    closed_ops = 24
    open_ops = 20
    open_rate = 800.0
    documents = 64
    pool_fragments = 200_000

    def requests(self, count: int) -> list:
        return [self.write_request() for _ in range(count)]

    async def check(self, gateway) -> None:
        # No read runs inside this workload's slices, so read back a
        # few of the documents just written, through the gateway.
        for doc in set(self.recent_writes):
            await self.read(gateway, self.read_item(doc), sample=True)
        await super().check(gateway)

    def read_item(self, doc: int) -> tuple:
        return ("r", doc, Request(self.subjects[0], Action.READ,
                                  self.doc_paths[doc]))


class MixedRw(Workload):
    name = "mixed_rw"
    closed_ops = 10
    open_ops = 10
    open_rate = 230.0
    documents = 64
    pool_fragments = 200_000

    def requests(self, count: int) -> list:
        """Every ten requests hold exactly one write, at a drawn
        position: bursts then do equal work, and the median over
        bursts is not a coin toss between zero-write and one-write
        bursts."""
        items = []
        for _ in range(count // 10):
            at = self.rng.randrange(10)
            items += [self.write_request() if slot == at
                      else self.read_request() for slot in range(10)]
        return items


WORKLOADS = {cls.name: cls
             for cls in (AuthzHot, ReadStream, WriteDurable, MixedRw)}

"""Replica groups: a primary-per-shard write path over epoch snapshots.

One :class:`ReplicaGroup` is a shard's set of copies: the primary
applies writes and ships versioned deltas to the read replicas; each
replica publishes every accepted state through its own
:class:`~repro.snap.epoch.EpochManager`, so reads are lock-free
single-pointer loads exactly like the rest of the snapshot layer.

The correctness discipline, proven by the chaos battery:

* **contiguous deltas** — a replica accepts a delta only when its
  version is exactly ``watermark + 1`` and otherwise raises a typed
  :class:`~repro.core.errors.ReplicaDiverged`, falling behind rather
  than opening a hole.  A replica's watermark therefore names a state
  the primary lineage actually published — the invariant failover and
  read-your-writes sessions both lean on;
* **acknowledged ⇒ survivable** — a write is acknowledged only after
  the primary applied it *and* at least one read replica accepted the
  delta (groups of one ack on the primary alone).  Otherwise the
  caller gets :class:`~repro.core.errors.MessageDropped` and retries;
  retried ops are idempotent puts/deletes, so double application under
  lost acks is harmless;
* **failover promotes the freshest** — the candidate with the highest
  watermark among reachable replicas contains every acknowledged
  write; a reachable candidate *below* the acknowledged high-water is
  refused outright (promoting it would drop a durable write while its
  holder sits behind a transient fault window); promotion bumps the
  winner's watermark to the group's high-water version so version
  numbers never rewind or get reused across lineages (watermarks stay
  monotone for sessions);
* **anti-entropy converges** — a background round diffs each replica
  against the primary by Merkle tree and ships only divergent buckets
  (:mod:`repro.replica.antientropy`); the group has converged when
  every replica's root equals the primary's, byte for byte.

Faults are injected at the sites ``replica:{shard}/{i}`` and surface
as typed transport errors (CRASH → ReplicaUnavailable, DROP/REORDER →
MessageDropped, CORRUPT → CorruptMessage, STALE_READ → StaleRead,
DELAY charges the fault clock inside the injector) — the same mapping
as both gateways, so one chaos plan speaks the whole stack's language.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import (
    ConfigurationError,
    CorruptMessage,
    MessageDropped,
    ReplicaDiverged,
    ReplicaUnavailable,
    SnapshotError,
    StaleRead,
    TransportError,
)
from repro.crypto.hashing import sha256_int
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind
from repro.replica.antientropy import RepairReport, antientropy_repair
from repro.replica.store import BucketedMerkleStore
from repro.snap.epoch import EpochManager


@dataclass(frozen=True)
class Delta:
    """One versioned write shipped primary → replica.

    ``ops`` are ``("put", key, value)`` / ``("del", key)`` tuples —
    idempotent by construction, so at-least-once delivery (DUPLICATE
    faults, client retries after lost acks) cannot corrupt state.
    """

    version: int
    ops: tuple[tuple, ...]


class ReplicaSnapshot:
    """One immutable published epoch of a replica's state.

    Shares bucket dicts with the store zero-copy (writes replace
    buckets, never mutate them), carries the watermark the state
    corresponds to, and the Merkle root as its digest.
    """

    __slots__ = ("_buckets", "watermark", "root", "epoch")

    def __init__(self, buckets: tuple[dict[str, str], ...],
                 watermark: int, root: str) -> None:
        self._buckets = buckets
        self.watermark = watermark
        self.root = root
        self.epoch = None  # set by EpochManager.publish

    def get(self, key: str) -> str | None:
        index = sha256_int(f"bucket:{key}") % len(self._buckets)
        return self._buckets[index].get(key)


class Replica:
    """One copy of a shard: store + watermark + published epochs."""

    def __init__(self, site: str, bucket_count: int = 64,
                 faults: FaultInjector | None = None) -> None:
        self.site = site
        self.store = BucketedMerkleStore(bucket_count)
        self.faults = faults
        #: Highest version this replica's state reflects.
        self.watermark = 0
        self.epochs = EpochManager()
        #: The epoch before the current one — what STALE_READ faults
        #: serve, so staleness is a *real* lagging snapshot, not a flag.
        self._previous: ReplicaSnapshot | None = None
        #: Deltas a REORDER fault deferred behind later traffic.
        self._deferred: list[Delta] = []
        self.reads_served = 0
        self.deltas_applied = 0
        self._publish()

    # -- epoch publication ------------------------------------------------

    def _publish(self) -> None:
        try:
            previous = self.epochs.current()
        except SnapshotError:
            previous = None
        snapshot = ReplicaSnapshot(self.store.buckets_view(),
                                   self.watermark, self.store.root)
        self.epochs.publish(snapshot)
        self._previous = previous

    # -- fault gating -----------------------------------------------------

    def _gate(self, *, deliverable: bool) -> dict[str, bool]:
        """Step the injector at this replica's site; typed errors out.

        *deliverable* marks operations that carry a payload a REORDER
        fault can defer (delta delivery); reads just fail dropped.
        """
        flags = {"stale": False, "defer": False, "duplicate": False}
        if self.faults is None:
            self._flush_deferred()
            return flags
        events = self.faults.step(self.site)
        for event in events:
            if event.kind is FaultKind.CRASH:
                raise ReplicaUnavailable(f"{self.site} is down")
            if event.kind is FaultKind.CORRUPT:
                raise CorruptMessage(
                    f"message to {self.site} failed its frame checksum")
            if event.kind is FaultKind.DROP:
                raise MessageDropped(
                    f"message to {self.site} lost in transit")
            if event.kind is FaultKind.REORDER:
                if deliverable:
                    flags["defer"] = True
                else:
                    raise MessageDropped(
                        f"request to {self.site} arrived out of order "
                        f"and was discarded")
            if event.kind is FaultKind.DUPLICATE:
                flags["duplicate"] = True
            if event.kind is FaultKind.STALE_READ:
                flags["stale"] = True
        self._flush_deferred()
        return flags

    def _flush_deferred(self) -> None:
        """Deliver reorder-deferred deltas now that later traffic has
        overtaken them (best effort: non-contiguous ones stay lost
        until anti-entropy repairs the gap)."""
        if not self._deferred:
            return
        pending, self._deferred = self._deferred, []
        for delta in sorted(pending, key=lambda d: d.version):
            self._try_apply(delta)

    def ping(self) -> None:
        """Liveness probe: raises the site's typed error if down."""
        if self.faults is None:
            return
        for event in self.faults.step(self.site):
            if event.kind is FaultKind.CRASH:
                raise ReplicaUnavailable(f"{self.site} is down")

    # -- the replica (follower) write path --------------------------------

    def receive(self, delta: Delta) -> None:
        """Accept one shipped delta, fault-gated and contiguity-checked."""
        flags = self._gate(deliverable=True)
        if flags["defer"]:
            self._deferred.append(delta)
            raise MessageDropped(
                f"delta v{delta.version} to {self.site} overtaken in "
                f"transit (deferred)")
        if not self._try_apply(delta):
            raise ReplicaDiverged(
                f"{self.site} at watermark {self.watermark} refused "
                f"non-contiguous delta v{delta.version}")
        if flags["duplicate"]:
            # At-least-once delivery: the second application is a
            # version no-op, which _try_apply recognizes.
            self._try_apply(delta)

    def _try_apply(self, delta: Delta) -> bool:
        """Apply iff contiguous; True when the state reflects *delta*."""
        if delta.version <= self.watermark:
            return True  # already applied (duplicate/late copy)
        if delta.version != self.watermark + 1:
            return False  # a hole — fall behind, wait for repair
        self.store.apply(delta.ops)
        self.watermark = delta.version
        self.deltas_applied += 1
        self._publish()
        return True

    # -- the primary (leader) write path -----------------------------------

    def admit_write(self) -> dict[str, bool]:
        """Fault gate for an originating write at the primary's site.

        CRASH/CORRUPT/REORDER refuse the write before application;
        DROP models a lost *acknowledgement*: the write will apply and
        ship, but the caller's ack is raised away afterwards.
        """
        flags = {"ack_lost": False}
        if self.faults is None:
            self._flush_deferred()
            return flags
        for event in self.faults.step(self.site):
            if event.kind is FaultKind.CRASH:
                raise ReplicaUnavailable(f"primary {self.site} is down")
            if event.kind is FaultKind.CORRUPT:
                raise CorruptMessage(
                    f"write to primary {self.site} failed its frame "
                    f"checksum")
            if event.kind is FaultKind.REORDER:
                raise MessageDropped(
                    f"write to primary {self.site} arrived out of "
                    f"order and was discarded")
            if event.kind is FaultKind.DROP:
                flags["ack_lost"] = True
        self._flush_deferred()
        return flags

    def gate_send(self) -> None:
        """One send operation at the primary's site per shipped delta.

        A CRASH window opening here is the "kill primary mid-publish"
        scenario: earlier replicas already hold the delta, later ones
        never see it, and the group must still converge.
        """
        if self.faults is None:
            return
        for event in self.faults.step(self.site):
            if event.kind is FaultKind.CRASH:
                raise ReplicaUnavailable(
                    f"primary {self.site} went down mid-publish")

    def apply_authoritative(self, delta: Delta) -> None:
        """Primary-side application: the leader's watermark may jump
        (post-failover version counters resume from the promotion
        point), so no contiguity check — the primary defines history."""
        if delta.version <= self.watermark:
            return  # idempotent re-application after a lost ack
        self.store.apply(delta.ops)
        self.watermark = delta.version
        self.deltas_applied += 1
        self._publish()

    def promote(self, high_water_version: int) -> None:
        """Become primary: adopt the group's high-water version so
        version numbers are never reused across lineages."""
        if high_water_version > self.watermark:
            self.watermark = high_water_version
            self._publish()

    # -- reads -------------------------------------------------------------

    def serve_read(self, key: str,
                   min_watermark: int = 0) -> tuple[str | None, int]:
        """Read *key* from the current epoch, fault-gated.

        A STALE_READ fault serves the *previous* epoch — genuinely lagging
        state, which the watermark check then catches: if the served
        snapshot's watermark is below *min_watermark* the caller gets a
        typed :class:`StaleRead` instead of silently old data.
        """
        flags = self._gate(deliverable=False)
        snapshot = self.epochs.current()
        if flags["stale"] and self._previous is not None:
            snapshot = self._previous
        if snapshot.watermark < min_watermark:
            raise StaleRead(
                f"{self.site} answered at watermark "
                f"{snapshot.watermark}; caller requires >= "
                f"{min_watermark}")
        self.reads_served += 1
        return snapshot.get(key), snapshot.watermark

    # -- repair ------------------------------------------------------------

    def repair_from(self, source: "Replica") -> RepairReport:
        """Anti-entropy pull: converge on *source*'s state, shipping
        only divergent buckets; adopts *source*'s watermark (the state
        now *is* that watermark's state, fresh by construction)."""
        self._gate(deliverable=True)  # repair traffic faults too
        report = antientropy_repair(source.store, self.store)
        self.watermark = source.watermark
        self._publish()
        return report


class ReplicaGroup:
    """A shard's replicas: one primary, N-1 read replicas, failover."""

    def __init__(self, shard: str = "0", replica_count: int = 3,
                 bucket_count: int = 64,
                 faults: FaultInjector | None = None,
                 trace: list | None = None) -> None:
        if replica_count < 1:
            raise ConfigurationError(
                f"replica_count must be >= 1, got {replica_count}")
        self.shard = str(shard)
        self.faults = faults
        self.replicas = [
            Replica(f"replica:{self.shard}/{i}", bucket_count, faults)
            for i in range(replica_count)]
        self.primary_index = 0
        #: High-water version ever issued (never rewinds, even across
        #: failovers — promotion bumps the new primary up to it).
        self.version = 0
        #: Highest *acknowledged* version: the durability floor no
        #: failover may promote below (a candidate whose watermark is
        #: under it would silently drop an acknowledged write).
        self.acked_version = 0
        self.failovers = 0
        self.unacked_writes = 0
        #: Deterministic event log: (event, ...) tuples, compared
        #: verbatim by the chaos battery's same-seed determinism check.
        #: ``None`` (the default, and the served path) records nothing.
        self.trace: list[tuple] | None = trace
        self._read_cursor = 0

    def _record(self, *event) -> None:
        if self.trace is not None:
            self.trace.append(event)

    @property
    def primary(self) -> Replica:
        return self.replicas[self.primary_index]

    def read_replicas(self) -> list[Replica]:
        return [replica for index, replica in enumerate(self.replicas)
                if index != self.primary_index]

    # -- writes ------------------------------------------------------------

    def write(self, ops) -> int:
        """Apply *ops* at the primary and ship the delta to every read
        replica; acknowledged (version returned) only when the primary
        applied it and ≥1 read replica holds the delta."""
        ops = tuple(tuple(op) for op in ops)
        primary = self.primary
        flags = primary.admit_write()  # may raise: primary-site faults
        version = self.version + 1
        delta = Delta(version, ops)
        primary.apply_authoritative(delta)
        self.version = version
        self._record("write", version, len(ops))
        shipped = 0
        primary_died: TransportError | None = None
        for index, replica in enumerate(self.replicas):
            if index == self.primary_index:
                continue
            if primary_died is None:
                try:
                    primary.gate_send()
                except TransportError as exc:
                    primary_died = exc
            if primary_died is not None:
                self._record("ship", version, index, "primary-down")
                continue
            try:
                replica.receive(delta)
                shipped += 1
                self._record("ship", version, index, "ok")
            except TransportError as exc:
                self._record("ship", version, index,
                             type(exc).__name__)
        if primary_died is not None:
            # The write applied locally but the primary died before
            # finishing publication — unacknowledged; the caller fails
            # over and retries (idempotent ops make that safe).
            self.unacked_writes += 1
            raise ReplicaUnavailable(
                f"primary {primary.site} crashed mid-publish of "
                f"v{version}")
        if shipped == 0 and len(self.replicas) > 1:
            self.unacked_writes += 1
            self._record("unacked", version)
            raise MessageDropped(
                f"delta v{version} reached no read replica of shard "
                f"{self.shard}; write unacknowledged")
        if flags["ack_lost"]:
            self.unacked_writes += 1
            raise MessageDropped(
                f"ack for v{version} from primary {primary.site} lost "
                f"in transit (the write did apply)")
        self.acked_version = version
        return version

    # -- reads -------------------------------------------------------------

    def read(self, key: str,
             min_watermark: int = 0) -> tuple[str | None, int, int]:
        """Serve *key* from any caught-up replica, primary as fallback.

        Fans out over the read replicas round-robin; a replica that is
        down, lagging below *min_watermark*, or faulted is skipped and
        the next one probed.  Returns ``(value, watermark, index)``.
        """
        readers = [index for index in range(len(self.replicas))
                   if index != self.primary_index]
        if readers:
            start = self._read_cursor % len(readers)
            order = readers[start:] + readers[:start]
        else:
            order = []
        order.append(self.primary_index)
        self._read_cursor += 1
        last_error: TransportError | None = None
        for index in order:
            try:
                value, watermark = self.replicas[index].serve_read(
                    key, min_watermark)
            except TransportError as exc:
                last_error = exc
                continue
            self._record("read", key, index, watermark)
            return value, watermark, index
        assert last_error is not None
        raise last_error

    # -- failover ----------------------------------------------------------

    def failover(self) -> int:
        """Promote the freshest reachable replica to primary.

        Freshest-by-watermark contains every acknowledged write (the
        contiguity rule makes watermarks name real published prefixes).
        A reachable candidate below the acked high-water is *refused*:
        the one replica holding the newest acknowledged delta may be
        behind a transient fault window, and promoting past it would
        silently drop a write the caller was told survived — so the
        failover fails typed and the caller retries until a covering
        replica answers.  Promotion bumps the winner to the group's
        high-water version and an immediate anti-entropy round pulls
        the reachable survivors — including the demoted ex-primary,
        which may hold unacknowledged writes that must be overwritten —
        onto the new history.
        """
        candidates = sorted(
            (index for index in range(len(self.replicas))
             if index != self.primary_index),
            key=lambda index: (-self.replicas[index].watermark, index))
        last_error: TransportError | None = None
        for index in candidates:
            if self.replicas[index].watermark < self.acked_version:
                # Sorted by freshness: nobody further down covers the
                # durability floor either.
                last_error = ReplicaUnavailable(
                    f"no reachable replica of shard {self.shard} "
                    f"covers acked version {self.acked_version}")
                break
            try:
                self.replicas[index].ping()
            except TransportError as exc:
                last_error = exc
                continue
            previous = self.primary_index
            self.primary_index = index
            self.replicas[index].promote(self.version)
            self.version = self.replicas[index].watermark
            self.failovers += 1
            self._record("failover", previous, index, self.version)
            self.anti_entropy_round()
            return index
        if last_error is None:
            raise ReplicaUnavailable(
                f"shard {self.shard} has no replica to promote")
        raise last_error

    # -- anti-entropy ------------------------------------------------------

    def anti_entropy_round(self) -> list[tuple[int, RepairReport]]:
        """One background repair pass: every replica whose digest
        differs from the primary's pulls the divergent buckets."""
        primary = self.primary
        reports: list[tuple[int, RepairReport]] = []
        for index, replica in enumerate(self.replicas):
            if index == self.primary_index:
                continue
            if (replica.store.root == primary.store.root
                    and replica.watermark == primary.watermark):
                continue
            try:
                report = replica.repair_from(primary)
            except TransportError as exc:
                self._record("repair", index, type(exc).__name__)
                continue
            reports.append((index, report))
            self._record("repair", index, report.buckets_shipped)
        return reports

    def converged(self) -> bool:
        """All replicas byte-identical to the primary (digest equality
        — the mutually-distrusting proof, not an assertion)."""
        primary = self.primary
        return all(replica.store.root == primary.store.root
                   and replica.watermark == primary.watermark
                   for replica in self.replicas)

    def state_digest(self) -> str:
        return self.primary.store.root

    def watermarks(self) -> list[int]:
        return [replica.watermark for replica in self.replicas]

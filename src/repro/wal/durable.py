"""Durable wrappers: WAL + checkpoints under the existing stores.

Each wrapper keeps the inner store's read surface intact (attribute
delegation) and intercepts its mutators.  The unit of logging is the
**transaction**: a :meth:`DurableStore.group` block (a stand-alone op
is a transaction of one) holds the store-wide re-entrant mutex from
its first op to its last, applies each op **first** — so a rejected op
(authorization failure, missing document) raises before anything is
logged — collects the ``(op, args, kwargs)`` triples it applied, and
at the outermost exit pickles them *once* into **one record**: one
payload, one submit, one frame, one LSN, one ticket.  A frame is valid
or torn as a whole, so a crash leaves all of a transaction or none of
it — the log is crash-atomic at the same grain at which the snapshot
store is reader-atomic.  A block that raises still logs exactly the
prefix it applied before the exception leaves: state and log agree.

Submitting inside the critical section makes apply order, LSN order,
and log order one and the same.  The durability wait happens
**outside** the mutex and on the committer's own thread
(:mod:`repro.wal.pipeline`: the first committer to find the pipeline
idle leads the batch, the rest follow), which is what lets concurrent
writers share one fsync instead of serializing on the device.

Two acknowledgement modes:

* ``durability="fsync"`` — every transaction blocks until the fsync
  covering its record returns; an acknowledged write is durable.
* ``durability="enqueue"`` — transactions return at enqueue;
  durability trails by at most ``max_lag`` transactions, enforced with
  a typed :class:`~repro.core.errors.DurabilityLagExceeded` before the
  transaction's first op applies (bounded staleness, never silent
  unbounded loss), and :meth:`wal_sync` is the barrier callers (the
  gateway's write path) use to settle.  Only this mode runs a
  background flusher thread — its acks return before anyone waits.

Logged arguments must be picklable — module-level predicates, entity
dataclasses, strings.  A lambda row-filter is rejected with a typed
:class:`~repro.core.errors.WalError` *before* the op applies, so the
store never diverges from its log.

Recovery (``<class>.recover(vfs, ...)``) loads the newest checkpoint,
replays the log suffix in LSN order, one transaction at a time, and
returns the rebuilt store plus a :class:`RecoveryReport`.  A store
opened any other way over records or a checkpoint above its
``start_lsn`` raises a :class:`WalError` naming ``recover()``.
Replaying an op that fails, or a payload that is not a sequence of op
triples, is :class:`~repro.core.errors.WalCorrupt`: only *successful*
ops are ever logged, so a replay failure means the log and checkpoint
disagree.
"""

from __future__ import annotations

import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.errors import ReproError, WalCorrupt, WalError
from repro.core.policy import PolicyBase
from repro.crypto.hashing import combine, sha256_hex
from repro.relational.database import Database
from repro.snap.frozen import parse_frozen
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.uddi.registry import UddiRegistry
from repro.wal.checkpoint import CheckpointStore
from repro.wal.log import WriteAheadLog
from repro.wal.pipeline import CommitPipeline
from repro.wal.replay import recover as replay_recover
from repro.xmldb.serializer import serialize, serialize_element

DURABILITY_MODES = ("fsync", "enqueue")

#: Argument types that always pickle; an op made only of these skips
#: the trial pickle that refuses unloggable arguments before apply.
_PLAIN = frozenset({str, int, float, bool, bytes, type(None)})


def encode_ops(ops) -> bytes:
    """The record payload of one transaction: its ``(op, args,
    kwargs)`` triples, in apply order, as one pickle."""
    try:
        return pickle.dumps(tuple(ops), protocol=5)
    except Exception as exc:
        raise WalError(
            f"op {ops[-1][0]!r} has unpicklable arguments and cannot "
            f"be made durable: {exc}") from exc


def decode_ops(lsn: int, payload: bytes) -> tuple:
    """Inverse of :func:`encode_ops`; anything else is corruption."""
    try:
        ops = pickle.loads(payload)
        for op, args, kwargs in ops:
            if not (isinstance(op, str) and isinstance(args, tuple)
                    and isinstance(kwargs, dict)):
                raise TypeError(f"{op!r} is not an op triple")
    except Exception as exc:
        raise WalCorrupt(
            f"LSN {lsn} does not decode as a sequence of op triples "
            f"({exc})") from exc
    return ops


@dataclass
class RecoveryReport:
    """What a recovery run did — the bench and chaos oracles read it."""

    checkpoint_lsn: int = 0
    checkpoint_digest: str | None = None
    records_replayed: int = 0
    last_lsn: int = 0
    segments_scanned: int = 0
    bytes_scanned: int = 0
    truncated: list[tuple[str, int]] = field(default_factory=list)


class DurableStore:
    """Common WAL/checkpoint machinery; subclasses own op dispatch.

    One plain inner store, one :class:`WriteAheadLog`, one
    :class:`CommitPipeline`.
    """

    def __init__(self, inner, vfs, *, durability: str = "fsync",
                 max_batch: int = 256, max_lag: int = 4096,
                 segment_bytes: int = 4 * 1024 * 1024,
                 auto_flush: bool = True,
                 injector=None, start_lsn: int = 0) -> None:
        if durability not in DURABILITY_MODES:
            raise WalError(
                f"unknown durability mode {durability!r}; expected one "
                f"of {DURABILITY_MODES}")
        self.inner = inner
        self.vfs = vfs
        self.durability = durability
        self.checkpoints = CheckpointStore(vfs)
        if self.checkpoints.latest_lsn() > start_lsn:
            raise WalError(f"log directory holds a checkpoint above the "
                           f"start LSN {start_lsn}; open it with recover()")
        self.wal = WriteAheadLog(vfs, start_lsn=start_lsn,
                                 segment_bytes=segment_bytes)
        # A flusher thread only where acks return before anyone waits;
        # under "fsync" the committers flush on their own threads.
        self.pipeline = CommitPipeline(
            self.wal, max_batch=max_batch, max_lag=max_lag,
            auto_flush=auto_flush and durability == "enqueue",
            injector=injector, vfs=vfs)
        # Re-entrant: a group() holds it across its ops, each of which
        # takes it again.  Everything below is guarded by it.
        self._mutex = threading.RLock()
        self._depth = 0
        self._ops: list[tuple[str, tuple, dict]] = []  # open transaction
        self._pending: list = []  # enqueue-mode tickets, for wal_sync()

    @property
    def pipelines(self) -> tuple[CommitPipeline]:
        """The one pipeline, as the tuple the e2e benchmark's
        ``Workload.wal_counts`` (``benchmarks/e2e/workloads.py``) sums
        over.  Read-only; new code uses :attr:`pipeline`."""
        return (self.pipeline,)

    # -- delegation --------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    # -- the durable op path ----------------------------------------------

    def _apply(self, op: str, args: tuple, kwargs: dict):
        return getattr(self.inner, op)(*args, **kwargs)

    def _durable_op(self, op: str, *args, **kwargs):
        self._begin()
        try:
            if not self._ops:
                # A sealed or lagging pipeline refuses before anything
                # applies.
                self.pipeline.admit()
            if kwargs or not _PLAIN.issuperset(map(type, args)):
                encode_ops([(op, args, kwargs)])  # refuse *before* apply
            result = self._apply(op, args, kwargs)
            self._ops.append((op, args, kwargs))
            return result
        finally:
            self._end()

    def _begin(self) -> None:
        self._mutex.acquire()
        self._depth += 1

    def _end(self) -> None:
        """Leave a transaction level; the outermost exit logs the ops
        applied as one record and settles it outside the mutex."""
        ticket = None
        try:
            self._depth -= 1
            if self._depth == 0 and self._ops:
                ops, self._ops = self._ops, []
                ticket = self.pipeline.submit(encode_ops(ops))
                if self.durability == "enqueue":
                    self._pending.append(ticket)
        finally:
            self._mutex.release()
        if ticket is not None and self.durability == "fsync":
            ticket.wait()

    @contextmanager
    def group(self):
        """One transaction: every op of the block in one WAL record,
        one durability wait at exit.  Nested groups join the outermost
        one.  Other writers wait for the whole block."""
        self._begin()
        try:
            yield self
        finally:
            self._end()

    def wal_sync(self) -> int:
        """Barrier: wait out every pending (enqueue-mode) ticket;
        returns how many were settled.  Typed errors from sealed
        pipelines propagate — never swallowed."""
        with self._mutex:
            pending, self._pending = self._pending, []
        first_error: WalError | None = None
        for ticket in pending:
            try:
                ticket.wait()
            except WalError as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error
        return len(pending)

    @property
    def durability_lag(self) -> int:
        return self.pipeline.lag

    def close(self) -> None:
        self.pipeline.close()
        self.wal.close()

    def wal_stats(self) -> dict[str, object]:
        return {
            "log": self.wal.stats.snapshot(),
            "pipeline": self.pipeline.stats_snapshot(),
            "checkpoints": {"written": self.checkpoints.written,
                            "skipped": self.checkpoints.skipped},
            "durability": self.durability,
            "lag": self.durability_lag,
        }

    # -- checkpointing -----------------------------------------------------

    def _checkpoint_payload(self) -> bytes:
        """The whole inner store, pickled (UDDI, relational)."""
        return pickle.dumps(self.inner, protocol=5)

    def state_digest(self) -> str:
        raise NotImplementedError

    def checkpoint(self) -> bool:
        """Write an incremental checkpoint and truncate the covered log
        prefix; returns False when skipped (digest unchanged)."""
        with self._mutex:
            if self._depth:
                raise WalError(
                    "checkpoint inside an open transaction: its ops "
                    "are applied but have no LSN yet")
            # Under the op mutex the log's last LSN is exactly the
            # last *applied* transaction, so the serialized state
            # covers every record at or below it.
            lsn = self.wal.last_lsn
            payload, digest, release = self._capture()
        try:
            written = self.checkpoints.write(lsn, digest, payload)
        finally:
            release()
        if written:
            self.wal.truncate_until(lsn)
        return written

    def _capture(self):
        """(payload, digest, release) — release undoes any epoch pin.
        Called under the op mutex; default has nothing to pin."""
        return self._checkpoint_payload(), self.state_digest(), _noop

    # -- recovery ----------------------------------------------------------

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        raise NotImplementedError

    @classmethod
    def _restore_inner(cls, payload: bytes, **inner_kwargs):
        """Inverse of :meth:`_checkpoint_payload`."""
        return pickle.loads(payload)

    def _replay(self, ops) -> None:
        """Re-apply one recovered transaction."""
        for op, args, kwargs in ops:
            self._apply(op, args, kwargs)

    @classmethod
    def recover(cls, vfs, *, inner_kwargs: dict | None = None,
                **store_kwargs) -> tuple["DurableStore", RecoveryReport]:
        """Rebuild the store from its directory: newest checkpoint plus
        the log suffix, applied strictly in LSN order."""
        inner_kwargs = inner_kwargs or {}
        report = RecoveryReport()
        checkpoint = CheckpointStore(vfs).latest()
        if checkpoint is not None:
            lsn, digest, payload = checkpoint
            inner = cls._restore_inner(payload, **inner_kwargs)
            report.checkpoint_lsn = lsn
            report.checkpoint_digest = digest
        else:
            inner = cls._fresh_inner(**inner_kwargs)
        scan = replay_recover(vfs, from_lsn=report.checkpoint_lsn)
        report.records_replayed = len(scan.records)
        report.last_lsn = max(scan.last_lsn, report.checkpoint_lsn)
        report.segments_scanned = scan.segments
        report.bytes_scanned = scan.bytes_scanned
        report.truncated = scan.truncated
        store = cls(inner, vfs, start_lsn=report.last_lsn, **store_kwargs)
        for lsn, payload in scan.records:
            ops = decode_ops(lsn, payload)
            try:
                store._replay(ops)
            except ReproError as exc:
                raise WalCorrupt(
                    f"replaying LSN {lsn} failed ({exc}); only "
                    f"successful ops are logged, so the log and "
                    f"checkpoint disagree") from exc
        return store, report


def _noop() -> None:
    return None


# -- XML snapshot store ----------------------------------------------------


class DurableXmlStore(DurableStore):
    """WAL + epoch-snapshot checkpoints under SnapshotXmlDatabase.

    Documents travel through the log and checkpoints as canonical XML
    strings (the store's own serializer), so records are picklable and
    replay re-interns through the live :class:`InternPool`.  While a
    checkpoint serializes, the captured epoch is pinned via
    :meth:`EpochManager.retain_until` so reclamation can never race the
    serialization.
    """

    def create_collection(self, name: str) -> None:
        return self._durable_op("create_collection", name)

    def drop_collection(self, name: str) -> None:
        return self._durable_op("drop_collection", name)

    def insert(self, collection: str, doc_id: str, document):
        if not isinstance(document, str):
            document = serialize(document)
        return self._durable_op("insert", collection, doc_id, document)

    def delete(self, collection: str, doc_id: str):
        return self._durable_op("delete", collection, doc_id)

    def replace(self, collection: str, doc_id: str, document):
        if not isinstance(document, str):
            document = serialize(document)
        return self._durable_op("replace", collection, doc_id, document)

    def set_text(self, collection: str, doc_id: str, path: str,
                 text: str) -> None:
        return self._durable_op("set_text", collection, doc_id, path,
                                text)

    def set_attribute(self, collection: str, doc_id: str, path: str,
                      name: str, value: str) -> None:
        return self._durable_op("set_attribute", collection, doc_id,
                                path, name, value)

    def remove_attribute(self, collection: str, doc_id: str, path: str,
                         name: str) -> None:
        return self._durable_op("remove_attribute", collection, doc_id,
                                path, name)

    def append_child(self, collection: str, doc_id: str,
                     parent_path: str, child) -> None:
        if not isinstance(child, str):
            child = serialize_element(child)
        return self._durable_op("append_child", collection, doc_id,
                                parent_path, child)

    def remove_child(self, collection: str, doc_id: str,
                     path: str) -> None:
        return self._durable_op("remove_child", collection, doc_id, path)

    @contextmanager
    def writer(self):
        """One transaction that is also one epoch: atomic for readers
        (inner writer) and for crashes (one record)."""
        with self.group(), self.inner.writer():
            yield self

    def _replay(self, ops) -> None:
        # All-or-nothing, and the epochs the live store published.
        with self.inner.writer():
            super()._replay(ops)

    def _apply(self, op: str, args: tuple, kwargs: dict):
        if op == "append_child" and isinstance(args[3], str):
            args = (*args[:3], parse_frozen(args[3]).root)
        return getattr(self.inner, op)(*args, **kwargs)

    def state_digest(self) -> str:
        return self._digest_of(self.inner.freeze())

    def _capture(self):
        snapshot = self.inner.freeze()
        digest = self._digest_of(snapshot)
        release = self.inner.epochs.retain_until(
            self.inner.current(), digest)
        state = {
            collection: {doc_id: snapshot.serialize(collection, doc_id)
                         for doc_id in snapshot.doc_ids(collection)}
            for collection in snapshot.collection_names()}
        return pickle.dumps(state, protocol=5), digest, release

    @staticmethod
    def _digest_of(snapshot) -> str:
        parts = []
        for collection in sorted(snapshot.collection_names()):
            parts.append(sha256_hex(f"collection:{collection}"))
            for doc_id in sorted(snapshot.doc_ids(collection)):
                parts.append(sha256_hex(
                    f"{collection}/{doc_id}:"
                    + snapshot.merkle_root(collection, doc_id)))
        return combine(*parts) if parts else sha256_hex("empty-xmlstore")

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return SnapshotXmlDatabase(**inner_kwargs)

    @classmethod
    def _restore_inner(cls, payload: bytes, **inner_kwargs):
        inner = SnapshotXmlDatabase(**inner_kwargs)
        state = pickle.loads(payload)
        with inner.writer():
            for collection in sorted(state):
                inner.create_collection(collection)
                for doc_id in sorted(state[collection]):
                    inner.insert(collection, doc_id,
                                 state[collection][doc_id])
        return inner


# -- UDDI registry ---------------------------------------------------------


class DurableUddiRegistry(DurableStore):
    """WAL + whole-registry pickle checkpoints under a
    :class:`~repro.uddi.registry.UddiRegistry`."""

    def save_business(self, entity, publisher: str,
                      idempotency_key: str | None = None):
        return self._durable_op("save_business", entity, publisher,
                                idempotency_key)

    def delete_business(self, business_key: str, publisher: str) -> None:
        return self._durable_op("delete_business", business_key, publisher)

    def save_tmodel(self, tmodel, publisher: str,
                    idempotency_key: str | None = None):
        return self._durable_op("save_tmodel", tmodel, publisher,
                                idempotency_key)

    def add_assertion(self, assertion, publisher: str,
                      idempotency_key: str | None = None) -> None:
        return self._durable_op("add_assertion", assertion, publisher,
                                idempotency_key)

    def state_digest(self) -> str:
        return self.inner.state_digest()

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return UddiRegistry(**inner_kwargs)


# -- relational store ------------------------------------------------------


class DurableRelationalStore(DurableStore):
    """WAL + whole-database pickle checkpoints under a
    :class:`~repro.relational.database.Database`.  GRANT/REVOKE apply
    to the database's one grant graph (``inner.authorization``).
    Predicates and row filters logged through here must be module-level
    functions."""

    def create_table(self, table_schema, owner: str):
        return self._durable_op("create_table", table_schema, owner)

    def grant(self, grantor: str, grantee: str, table: str, privilege,
              with_grant_option: bool = False, row_filter=None,
              column_mask=()):
        return self._durable_op("grant", grantor, grantee, table,
                                privilege, with_grant_option, row_filter,
                                tuple(column_mask))

    def revoke(self, revoker: str, grantee: str, table: str, privilege):
        return self._durable_op("revoke", revoker, grantee, table,
                                privilege)

    def insert(self, user: str, table_name: str, **values):
        # Values travel as one positional dict: re-splatting them into
        # _durable_op's signature would make a column named "op" a
        # TypeError instead of data.
        return self._durable_op("insert", user, table_name, dict(values))

    def update(self, user: str, table_name: str, where, changes):
        return self._durable_op("update", user, table_name, where,
                                dict(changes))

    def delete(self, user: str, table_name: str, where):
        return self._durable_op("delete", user, table_name, where)

    def set_metadata(self, table: str, key: str, value) -> None:
        return self._durable_op("set_metadata", table, key, value)

    def _apply(self, op: str, args: tuple, kwargs: dict):
        if op == "insert":
            user, table_name, values = args
            return self.inner.insert(user, table_name, **values)
        if op in ("grant", "revoke"):
            return getattr(self.inner.authorization, op)(*args, **kwargs)
        return super()._apply(op, args, kwargs)

    def state_digest(self) -> str:
        grants = self.inner.authorization.all_grants()
        parts = []
        for name in self.inner.table_names():
            table = self.inner.table(name)
            rows = sorted(repr(sorted(row.items()))
                          for row in table.rows_as_dicts())
            parts.append(sha256_hex(
                f"table:{name}:" + "|".join(rows)))
            edges = sorted(
                f"{g.grantor}>{g.grantee}:{g.table}:{g.privilege.value}"
                f":{g.with_grant_option}"
                for g in grants if g.table == name)
            parts.append(sha256_hex(f"grants:{name}:" + "|".join(edges)))
        return combine(*parts) if parts else sha256_hex("empty-reldb")

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return Database(**inner_kwargs)


# -- policy store ----------------------------------------------------------


class DurablePolicyStore(DurableStore):
    """WAL + pickled-policy checkpoints under a :class:`PolicyBase`.

    Removals are logged by ``policy_id`` rather than by value: two
    unpicklings of one policy need not compare equal (subject
    expressions may compare by identity), but ids are stable across
    the pickle round trip.
    """

    def add(self, policy):
        return self._durable_op("add", policy)

    def remove(self, policy) -> None:
        self._durable_op("remove_id", policy.policy_id)

    def _apply(self, op: str, args: tuple, kwargs: dict):
        if op == "remove_id":
            (policy_id,) = args
            for policy in list(self.inner):
                if policy.policy_id == policy_id:
                    return self.inner.remove(policy)
            raise WalError(f"no policy with id {policy_id} to remove")
        return getattr(self.inner, op)(*args, **kwargs)

    def state_digest(self) -> str:
        parts = sorted(repr(policy) for policy in self.inner)
        return (combine(*(sha256_hex(p) for p in parts)) if parts
                else sha256_hex("empty-policybase"))

    def _checkpoint_payload(self) -> bytes:
        return pickle.dumps(list(self.inner), protocol=5)

    @classmethod
    def _fresh_inner(cls, **inner_kwargs):
        return PolicyBase(**inner_kwargs)

    @classmethod
    def _restore_inner(cls, payload: bytes, **inner_kwargs):
        return PolicyBase(pickle.loads(payload))

"""Durable wrappers: WAL + checkpoints under the existing stores.

Each wrapper keeps the inner store's read surface intact (attribute
delegation) and logs its mutators.  The unit of work is the
**transaction**, with one path through it.  A ``group()`` block (on
the XML store also ``writer()``: the same block, and one epoch) is
entered once — store mutex, pipeline admission (a sealed or closed log
refuses before anything applies), the inner writer lock — and an op
on the owning thread then only refuses arguments that would not
pickle, applies itself **first** to the inner store (so a rejected op
raises before anything is logged) and appends its ``(op, args,
kwargs)`` triple.  An op anywhere else is a transaction of one on the
same path, waiting on the mutex for any open block.  Nested blocks
join the outermost one, whose exit pickles the triples *once* into
**one record**: one payload, one submit, one frame, one LSN, one
ticket.  A frame is valid or torn as a whole, so a crash leaves all of
a transaction or none of it, and a block that raises still logs
exactly the prefix it applied: state and log agree.

Submitting inside the critical section makes apply order, LSN order,
and log order one and the same.  The durability wait happens
**outside** the mutex and on the committer's own thread
(:mod:`repro.wal.pipeline`: the first committer to find the pipeline
idle leads the batch, the rest follow), which is what lets concurrent
writers share one fsync instead of serializing on the device.

One acknowledgement rule: a transaction returns only once the fsync
covering its record has returned, so an acknowledged write is durable
and no thread flushes in the background.

Logged arguments must be picklable — module-level predicates, entity
dataclasses, strings.  A lambda row-filter is refused with a typed
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
disagree.  The UDDI and relational kinds live beside their stores
(:mod:`repro.uddi.durable`, :mod:`repro.relational.durable`), so the
WAL loads no store it does not serve.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass, field
from threading import get_ident

from repro.core.errors import ReproError, WalCorrupt, WalError
from repro.core.policy import PolicyBase
from repro.crypto.hashing import combine, sha256_hex
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.checkpoint import CheckpointStore
from repro.wal.log import WriteAheadLog
from repro.wal.pipeline import CommitPipeline
from repro.wal.replay import recover as replay_recover
from repro.xmldb.serializer import serialize, serialize_element

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
    """Common WAL/checkpoint machinery; subclasses name their ops.

    One plain inner store, one :class:`WriteAheadLog`, one
    :class:`CommitPipeline`.
    """

    def __init__(self, inner, vfs, *, durability: str = "fsync",
                 max_batch: int = 256,
                 segment_bytes: int = 4 * 1024 * 1024,
                 injector=None, start_lsn: int = 0) -> None:
        # "fsync" names the one acknowledgement rule; the argument
        # stays because benchmarks/e2e/workloads.py passes it.
        if durability != "fsync":
            raise WalError(f"unknown durability mode {durability!r}; "
                           f"a write is acknowledged at fsync")
        self.inner = inner
        self.vfs = vfs
        self.checkpoints = CheckpointStore(vfs)
        if self.checkpoints.latest_lsn() > start_lsn:
            raise WalError(f"log directory holds a checkpoint above the "
                           f"start LSN {start_lsn}; open it with recover()")
        self.wal = WriteAheadLog(vfs, start_lsn=start_lsn,
                                 segment_bytes=segment_bytes)
        self.pipeline = CommitPipeline(
            self.wal, max_batch=max_batch, injector=injector, vfs=vfs)
        # The open transaction: its thread, nesting depth and applied
        # ops.  Only the owner, holding the mutex, changes them.
        self._mutex = threading.Lock()
        self._owner: int | None = None
        self._depth = 0
        self._ops: list[tuple[str, tuple, dict]] = []
        self._epoch = None  # an inner write block, held per transaction
        self._appliers: dict[str, object] = {}

    @property
    def pipelines(self) -> tuple[CommitPipeline]:
        """The one pipeline, as the tuple the e2e benchmark's
        ``Workload.wal_counts`` (``benchmarks/e2e/workloads.py``) sums
        over.  Read-only; new code uses :attr:`pipeline`."""
        return (self.pipeline,)

    # -- delegation --------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    # -- the transaction path ----------------------------------------------

    def _op(self, op: str, args: tuple):
        """The one op path: inside the calling thread's open block,
        refuse unloggable arguments, apply, record; anywhere else, the
        same as a transaction of one."""
        if self._owner != get_ident():
            with self:
                return self._op(op, args)
        if not _PLAIN.issuperset(map(type, args)):
            encode_ops([(op, args, {})])  # refuse *before* apply
        try:
            apply = self._appliers[op]
        except KeyError:
            apply = self._appliers[op] = self._applier(op)
        result = apply(*args)
        self._ops.append((op, args, {}))
        return result

    def _applier(self, op: str):
        """What applies logged op *op*: the inner store's method of
        that name, unless a kind logs it under another."""
        return getattr(self.inner, op)

    def group(self) -> "DurableStore":
        """One transaction: every op of the block in one WAL record,
        one durability wait at exit.  Nested blocks join the outermost
        one.  Other writers wait for the whole block.  The store is its
        own block, so entering one costs a call, not a generator."""
        return self

    def __enter__(self) -> "DurableStore":
        if self._owner == get_ident():
            self._depth += 1  # a nested block joins the open one
            return self
        self._mutex.acquire()
        try:
            self.pipeline.admit()  # refuse before anything applies
        except BaseException:
            self._mutex.release()
            raise
        self._owner, self._depth = get_ident(), 1
        if self._epoch is not None:
            self._epoch.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        """The outermost exit publishes, logs the ops applied as one
        record and waits for its fsync outside the mutex."""
        self._depth -= 1
        if self._depth:
            return
        ops, self._ops = self._ops, []
        try:
            if self._epoch is not None:
                self._epoch.__exit__(*exc_info)
        finally:
            try:
                ticket = self.pipeline.submit(encode_ops(ops)) if ops else None
            finally:
                self._owner = None
                self._mutex.release()
        if ticket is not None:
            ticket.wait()

    def wal_sync(self) -> int:
        """Settle acknowledged writes: there are none to settle, since
        each waited for its own fsync; returns 0.  Kept only because
        ``benchmarks/e2e/tracing.py`` reads it."""
        return 0

    def close(self) -> None:
        self.pipeline.close()
        self.wal.close()

    def wal_stats(self) -> dict[str, object]:
        return {
            "log": self.wal.stats.snapshot(),
            "pipeline": self.pipeline.stats_snapshot(),
            "checkpoints": {"written": self.checkpoints.written,
                            "skipped": self.checkpoints.skipped},
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
        if self._owner == get_ident():
            raise WalError(
                "checkpoint inside an open transaction: its ops "
                "are applied but have no LSN yet")
        with self._mutex:
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
            self._applier(op)(*args, **kwargs)

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

    def __init__(self, inner: SnapshotXmlDatabase, vfs, **kwargs) -> None:
        super().__init__(inner, vfs, **kwargs)
        self._epoch = inner  # each transaction holds the inner writer

    def create_collection(self, name: str) -> None:
        return self._op("create_collection", (name,))

    def drop_collection(self, name: str) -> None:
        return self._op("drop_collection", (name,))

    def insert(self, collection: str, doc_id: str, document):
        if not isinstance(document, str):
            document = serialize(document)
        return self._op("insert", (collection, doc_id, document))

    def delete(self, collection: str, doc_id: str):
        return self._op("delete", (collection, doc_id))

    def replace(self, collection: str, doc_id: str, document):
        if not isinstance(document, str):
            document = serialize(document)
        return self._op("replace", (collection, doc_id, document))

    def set_text(self, collection: str, doc_id: str, path: str,
                 text: str) -> None:
        return self._op("set_text", (collection, doc_id, path, text))

    def set_attribute(self, collection: str, doc_id: str, path: str,
                      name: str, value: str) -> None:
        return self._op("set_attribute",
                        (collection, doc_id, path, name, value))

    def remove_attribute(self, collection: str, doc_id: str, path: str,
                         name: str) -> None:
        return self._op("remove_attribute",
                        (collection, doc_id, path, name))

    def append_child(self, collection: str, doc_id: str,
                     parent_path: str, child) -> None:
        if not isinstance(child, str):
            child = serialize_element(child)
        return self._op("append_child",
                        (collection, doc_id, parent_path, child))

    def remove_child(self, collection: str, doc_id: str,
                     path: str) -> None:
        return self._op("remove_child", (collection, doc_id, path))

    def writer(self) -> "DurableXmlStore":
        """The same block as :meth:`group`: here every transaction is
        also one epoch, atomic for readers and for crashes."""
        return self

    def _replay(self, ops) -> None:
        # All-or-nothing, and the epochs the live store published.
        with self.inner.writer():
            super()._replay(ops)

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


# -- policy store ----------------------------------------------------------


class DurablePolicyStore(DurableStore):
    """WAL + pickled-policy checkpoints under a :class:`PolicyBase`.

    Removals are logged by ``policy_id`` rather than by value: two
    unpicklings of one policy need not compare equal (subject
    expressions may compare by identity), but ids are stable across
    the pickle round trip.
    """

    def add(self, policy):
        return self._op("add", (policy,))

    def remove(self, policy) -> None:
        self._op("remove_id", (policy.policy_id,))

    def _applier(self, op: str):
        return self._remove_id if op == "remove_id" else super()._applier(op)

    def _remove_id(self, policy_id) -> None:
        for policy in list(self.inner):
            if policy.policy_id == policy_id:
                return self.inner.remove(policy)
        raise WalError(f"no policy with id {policy_id} to remove")

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

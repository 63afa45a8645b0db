"""The snapshot XML database: COW collections, epoch-published reads.

:class:`SnapshotXmlDatabase` is the snapshot-layer counterpart of
:class:`~repro.xmldb.database.XmlDatabase`.  Its entire state is a
persistent two-level map ``{collection: {doc_id: FrozenDocument}}``:

* inserting/replacing/deleting a document copies the outer dict and the
  one touched inner dict (every other collection map and every document
  is shared by reference with all outstanding snapshots) — **once per
  publication**: the copies are private to the writer until the next
  :meth:`freeze` hands them to a snapshot, so the later edits of a
  :meth:`writer` block update them in place;
* a node-level update (:meth:`set_text`, :meth:`append_child`, …)
  additionally rebuilds the root-to-target spine of one frozen tree via
  :mod:`repro.snap.frozen` — the rest of the document is shared.

:meth:`freeze` therefore captures the current references in O(1), and
:meth:`publish` pushes the capture through an
:class:`~repro.snap.epoch.EpochManager` so readers on other threads see
either the whole write or none of it.  Multi-operation writes wrap in
:meth:`writer`, which defers publication to the end of the block —
a reader can *freeze during a write* and still observe only the state
as of the last publication (the atomicity half of the equivalence
property test).

Reads go through :class:`XmlSnapshot`, which serves canonical
serialization and Merkle roots out of the shared
:class:`~repro.snap.intern.InternPool` — repeat reads of unchanged
documents are dictionary hits, across requests and across epochs.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.core.errors import ConfigurationError, QueryError
from repro.snap.epoch import EpochManager
from repro.snap.frozen import (
    FrozenDocument,
    FrozenElement,
    freeze_document,
    freeze_element,
    parse_frozen,
    resolve,
    with_appended_child,
    with_attribute,
    with_text,
    without_attribute,
    without_child,
)
from repro.snap.intern import InternPool
from repro.xmldb.model import Document, Element
from repro.xmldb.xpath import XPath, evaluate

#: collection name -> doc_id -> FrozenDocument (treat as read-only).
StoreState = dict


class XmlSnapshot:
    """One immutable epoch of the database.

    All methods are lock-free: the state can never change, and the
    intern pool does its own fine-grained synchronization.
    """

    def __init__(self, collections: StoreState, pool: InternPool) -> None:
        self._collections = collections
        self._pool = pool
        self.epoch: int | None = None

    # -- navigation ------------------------------------------------------

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def doc_ids(self, collection: str) -> list[str]:
        return sorted(self._documents_of(collection))

    def _documents_of(self, collection: str) -> dict:
        try:
            return self._collections[collection]
        except KeyError:
            raise QueryError(f"no collection {collection!r}") from None

    def document(self, collection: str, doc_id: str) -> FrozenDocument:
        documents = self._documents_of(collection)
        try:
            return documents[doc_id]
        except KeyError:
            raise QueryError(
                f"no document {doc_id!r} in collection {collection!r}"
            ) from None

    def documents(self, collection: str
                  ) -> Iterator[tuple[str, FrozenDocument]]:
        documents = self._documents_of(collection)
        for doc_id in sorted(documents):
            yield doc_id, documents[doc_id]

    def total_documents(self) -> int:
        return sum(len(docs) for docs in self._collections.values())

    # -- reads (interned) ------------------------------------------------

    def serialize(self, collection: str, doc_id: str) -> str:
        """Canonical bytes of one document (cached by subtree identity)."""
        return self._pool.serialize_document(
            self.document(collection, doc_id))

    def merkle_root(self, collection: str, doc_id: str) -> str:
        """The document's Merkle root hash (cached by subtree identity)."""
        return self._pool.merkle_document(
            self.document(collection, doc_id))

    def query(self, collection: str, xpath: XPath | str
              ) -> list[tuple[str, FrozenElement | str]]:
        """XPath over every document of *collection*, lock-free.

        The evaluator only walks the child axis, which frozen elements
        expose, so results match the live database's query on equal
        state (modulo node type: frozen elements come back).
        """
        results: list[tuple[str, FrozenElement | str]] = []
        for doc_id, document in self.documents(collection):
            for item in evaluate(xpath, document.root):
                results.append((doc_id, item))
        return results

    def resolve(self, collection: str, doc_id: str,
                path: str) -> FrozenElement:
        return resolve(self.document(collection, doc_id).root, path)

    def __repr__(self) -> str:
        return (f"<XmlSnapshot epoch={self.epoch} "
                f"collections={len(self._collections)}>")


def _spine_edit(edit):
    """A node-level mutation: the document's root becomes
    ``edit(root, path, *args)``.  Flat, as a transaction pays for it
    per edit: one lookup, the owned-dict check inline, and a publish
    unless a :meth:`~SnapshotXmlDatabase.writer` block defers it."""

    def mutation(self, collection: str, doc_id: str, path: str,
                 *args) -> None:
        with self._lock:
            try:
                frozen = self._collections[collection][doc_id]
            except KeyError:
                raise self._missing(collection, doc_id) from None
            root = edit(frozen.root, path, *args)
            if self._owned is not None and collection in self._owned:
                documents = self._collections[collection]
            else:
                documents = self._own(collection)
            documents[doc_id] = FrozenDocument(root, frozen.name)
            self._superseded.setdefault((collection, doc_id), frozen.root)
            if not self._deferred:
                self.publish()

    return mutation


class SnapshotXmlDatabase:
    """Writer-side store; every mutation publishes a new epoch.

    Single-writer semantics are enforced with an internal re-entrant
    lock; readers never take it — they go through
    :meth:`current`/:attr:`epochs`.
    """

    def __init__(self, name: str = "snapdb",
                 pool: InternPool | None = None,
                 epochs: EpochManager | None = None) -> None:
        self.name = name
        self.pool = pool if pool is not None else InternPool()
        self.epochs = epochs if epochs is not None else EpochManager()
        self._lock = threading.RLock()
        self._collections: StoreState = {}
        # Collections whose dict (and, when not None, the outer dict)
        # was copied since the last freeze(): no snapshot holds them
        # yet, so edits may update them in place.
        self._owned: set[str] | None = None
        # (collection, doc_id) -> its root before this publication's edits.
        self._superseded: dict[tuple[str, str], FrozenElement] = {}
        self._deferred = 0
        self.publish()

    # -- publication -----------------------------------------------------

    def freeze(self) -> XmlSnapshot:
        """Capture the current state — O(1), no tree copying."""
        with self._lock:
            self._owned = None  # the snapshot shares every dict now
            return XmlSnapshot(self._collections, self.pool)

    def publish(self) -> XmlSnapshot:
        """Publish, handing the pool each edited document's roots first."""
        with self._lock:
            snapshot = self.freeze()
            if self._superseded:
                self.pool.supersede([(old, self._collections[c][d].root)
                                     for (c, d), old
                                     in self._superseded.items()])
                self._superseded = {}
        self.epochs.publish(snapshot)
        return snapshot

    def current(self) -> XmlSnapshot:
        return self.epochs.current()

    def writer(self) -> "SnapshotXmlDatabase":
        """Group several mutations into one atomically-published epoch.

        Readers pinning the current epoch during the block keep seeing
        the pre-write state; the combined result becomes visible in a
        single :meth:`publish` when the outermost block exits.  The
        database is its own block: entering one costs a call.
        """
        return self

    def __enter__(self) -> "SnapshotXmlDatabase":
        self._lock.acquire()
        self._deferred += 1
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self._deferred -= 1
            if not self._deferred:
                self.publish()
        finally:
            self._lock.release()

    def _own(self, collection: str | None = None) -> dict:
        """The collections dict — or *collection*'s document dict —
        as a copy no snapshot shares, made at most once between two
        :meth:`freeze` calls (caller holds the lock).  Only the dicts
        are ever edited in place; frozen nodes never are."""
        if self._owned is None:
            self._collections = dict(self._collections)
            self._owned = set()
        if collection is None:
            return self._collections
        if collection not in self._owned:
            self._collections[collection] = dict(
                self._collections[collection])
            self._owned.add(collection)
        return self._collections[collection]

    # -- collection / document mutations --------------------------------

    def create_collection(self, name: str) -> None:
        with self._lock:
            if name in self._collections:
                raise ConfigurationError(
                    f"collection {name!r} already exists")
            self._own()[name] = {}
            self._owned.add(name)
            if not self._deferred:
                self.publish()

    def drop_collection(self, name: str) -> None:
        with self._lock:
            if name not in self._collections:
                raise QueryError(f"no collection {name!r}")
            for doc_id, frozen in self._collections[name].items():
                self._forget(name, doc_id, frozen)
            del self._own()[name]
            self._owned.discard(name)
            if not self._deferred:
                self.publish()

    def insert(self, collection: str, doc_id: str,
               document: Document | str) -> FrozenDocument:
        frozen = (parse_frozen(document, doc_id)
                  if isinstance(document, str) else freeze_document(document))
        with self._lock:
            if collection not in self._collections:
                raise self._missing(collection, doc_id)
            if doc_id in self._collections[collection]:
                raise ConfigurationError(
                    f"document {doc_id!r} already in collection "
                    f"{collection!r}")
            self._own(collection)[doc_id] = frozen
            if not self._deferred:
                self.publish()
        return frozen

    def delete(self, collection: str, doc_id: str) -> FrozenDocument:
        with self._lock:
            frozen = self._document(collection, doc_id)
            del self._own(collection)[doc_id]
            self._forget(collection, doc_id, frozen)
            if not self._deferred:
                self.publish()
        return frozen

    def replace(self, collection: str, doc_id: str,
                document: Document | str) -> FrozenDocument:
        frozen = (parse_frozen(document, doc_id)
                  if isinstance(document, str) else freeze_document(document))
        with self._lock:
            self._forget(collection, doc_id,
                         self._document(collection, doc_id))  # must exist
            self._own(collection)[doc_id] = frozen
            if not self._deferred:
                self.publish()
        return frozen

    # -- node-level mutations (copy-on-write spine edits) ----------------
    # Each takes (collection, doc_id, path, *the edit's own arguments).

    set_text = _spine_edit(with_text)
    set_attribute = _spine_edit(with_attribute)
    remove_attribute = _spine_edit(without_attribute)
    remove_child = _spine_edit(without_child)
    _append_child = _spine_edit(with_appended_child)

    def append_child(self, collection: str, doc_id: str, parent_path: str,
                     child: Element | FrozenElement | str) -> None:
        """*child*: live, frozen, or canonical XML (as logged)."""
        if isinstance(child, str):
            child = parse_frozen(child).root
        elif isinstance(child, Element):
            child = freeze_element(child)
        self._append_child(collection, doc_id, parent_path, child)

    # -- internals -------------------------------------------------------

    def _missing(self, collection: str, doc_id: str) -> QueryError:
        if collection not in self._collections:
            return QueryError(f"no collection {collection!r}")
        return QueryError(
            f"no document {doc_id!r} in collection {collection!r}")

    def _forget(self, collection: str, doc_id: str, frozen) -> None:
        """*doc_id* is deleted or replaced: nothing derives from it."""
        self.pool.supersede([(frozen.root, None), (self._superseded.pop(
            (collection, doc_id), None), None)])

    def _document(self, collection: str, doc_id: str) -> FrozenDocument:
        try:
            return self._collections[collection][doc_id]
        except KeyError:
            raise self._missing(collection, doc_id) from None


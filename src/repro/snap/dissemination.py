"""Dissemination and views served directly off database snapshots.

:class:`SnapshotDisseminator` closes the loop between the snapshot
store and the Author-X machinery: it thaws the frozen document of the
pinned epoch through the intern pool (same mutable object for every
epoch whose frozen root is unchanged — and it *is* unchanged unless a
write touched that document), then runs the interned
:class:`~repro.xmlsec.dissemination.Disseminator` and
:class:`~repro.xmlsec.views.CachedViewBuilder` over it.  Because both
key their entries by the document object plus ``(policy generation,
document version)``, and a thawed snapshot document has constant
version and stable identity, repeat packaging and repeat view
computation degenerate to cache hits plus (for packets) fresh
encryption — across requests and across epochs, with no locks held
anywhere on the path.
"""

from __future__ import annotations

from repro.core.subjects import Subject
from repro.snap.xmlstore import SnapshotXmlDatabase, XmlSnapshot
from repro.xmldb.model import Document
from repro.xmlsec.authorx import XmlPolicyBase
from repro.xmlsec.dissemination import Disseminator, Packet
from repro.xmlsec.views import CachedViewBuilder, ViewStats


class SnapshotDisseminator:
    """Owner-side packaging and view computation over snapshot epochs."""

    def __init__(self, store: SnapshotXmlDatabase,
                 policy_base: XmlPolicyBase,
                 secret: str = "dissemination") -> None:
        self.store = store
        self.policy_base = policy_base
        self.disseminator = Disseminator(policy_base, secret, intern=True)
        self.views = CachedViewBuilder(policy_base)

    @property
    def key_store(self):
        return self.disseminator.key_store

    def _thawed(self, collection: str, doc_id: str,
                snapshot: XmlSnapshot | None) -> Document:
        if snapshot is not None:
            return snapshot.thawed(collection, doc_id)
        with self.store.epochs.reading() as pinned:
            return pinned.thawed(collection, doc_id)

    # -- the read path ---------------------------------------------------

    def package(self, collection: str, doc_id: str,
                snapshot: XmlSnapshot | None = None,
                workers: int | None = None) -> Packet:
        """Encrypt one snapshot document into a broadcast packet.

        Pass *snapshot* to package against a pinned epoch; otherwise
        the current epoch is pinned for the duration of the call.
        """
        document = self._thawed(collection, doc_id, snapshot)
        return self.disseminator.package(doc_id, document,
                                         workers=workers)

    def view(self, subject: Subject, collection: str, doc_id: str,
             snapshot: XmlSnapshot | None = None,
             with_markers: bool = False
             ) -> tuple[Document | None, ViewStats]:
        """The subject's authorized view of one snapshot document."""
        document = self._thawed(collection, doc_id, snapshot)
        return self.views.view(subject, doc_id, document, with_markers)

    # -- key distribution (delegated) ------------------------------------

    def entitled_key_ids(self, subject: Subject) -> list[str]:
        return self.disseminator.entitled_key_ids(subject)

    def distributor(self, subjects: dict[str, Subject]):
        return self.disseminator.distributor(subjects)

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "prep": self.disseminator.prep_stats,
            "views": self.views.cache_stats,
            "intern": self.store.pool.stats(),
            "epochs": self.store.epochs.stats.snapshot(),
        }

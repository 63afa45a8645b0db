"""Copy-on-write snapshots with epoch-based publication (``repro.snap``).

The paper's read-mostly stores — policy bases, XML repositories, UDDI
registries — serve web-scale subject populations whose security
semantics must never drift under concurrent update.  Third-party
publishing (Bertino et al.) shows the winning shape: publish an
immutable, signed snapshot and serve every read from it.  This package
generalizes that shape into a store-agnostic read path:

* :mod:`repro.snap.frozen` — immutable XML trees with structural
  sharing: a write copies only the root-to-target spine, every
  untouched subtree is shared by reference (no ``deepcopy`` anywhere);
* :mod:`repro.snap.epoch` — :class:`EpochManager` atomically swaps the
  *current snapshot* pointer; readers pin an epoch, writers prepare the
  next one, retired epochs are reclaimed only after their last reader
  releases;
* :mod:`repro.snap.intern` — per-node serialized-fragment and
  Merkle-subtree caches keyed by shared node identity, so unchanged
  subtrees reuse their bytes across requests *and across epochs*;
* :mod:`repro.snap.xmlstore` — the snapshot variant of the XML
  database.
"""

from repro.snap.epoch import EpochManager, EpochStats
from repro.snap.frozen import (
    FrozenDocument,
    FrozenElement,
    freeze_document,
    freeze_element,
    thaw_document,
    thaw_element,
)
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase, XmlSnapshot

__all__ = [
    "EpochManager",
    "EpochStats",
    "FrozenDocument",
    "FrozenElement",
    "InternPool",
    "SnapshotXmlDatabase",
    "XmlSnapshot",
    "freeze_document",
    "freeze_element",
    "thaw_document",
    "thaw_element",
]

"""Merkle hashing of XML trees (the [3]/[4] construction).

Each element's *Merkle hash* covers its tag, a hash of its local content
(attributes + text), and the ordered Merkle hashes of its element
children::

    Ch(e)  = H(attrs(e) | text(e))                  -- content hash
    Mh(e)  = H(tag(e) | Ch(e) | Mh(c1) | ... | Mh(ck))

A signature over Mh(root) — the *summary signature* — commits to the
entire document.  When a receiver is entitled to only a partial view, the
sender supplies :class:`FillerHashes` of two kinds:

* **subtree fillers** — Mh of completely pruned subtrees (marked in the
  view with :func:`make_pruned_marker` placeholders);
* **content fillers** — Ch of elements whose structure is visible but
  whose local content was stripped (Author-X connectors and NAVIGATE
  nodes).

Together these are the "set of additional hash values, referring to the
missing portions" of §4.1, and let the receiver recompute Mh(root)
without learning any hidden content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import IntegrityError
from repro.crypto.hashing import combine
from repro.xmldb.model import Document, Element

_XML_NODE_PREFIX = "xmlnode:"
_XML_CONTENT_PREFIX = "xmlcontent:"


def content_hash(node: Element) -> str:
    """Hash of an element's local content (attributes + direct text)."""
    attrs = "|".join(f"{k}={v}" for k, v in sorted(node.attributes.items()))
    return combine(_XML_CONTENT_PREFIX, attrs, node.text)


def node_hash(tag: str, local_hash: str, child_hashes: list[str]) -> str:
    """Compose one element's Merkle hash from already-computed parts.

    The single place the Mh(e) recurrence is spelled out, shared by the
    recursive :func:`merkle_hash` and the snapshot layer's cross-epoch
    subtree cache (:class:`repro.snap.intern.InternPool`), so a cached
    hash and a recomputed one are interchangeable.
    """
    return combine(_XML_NODE_PREFIX, tag, local_hash, *child_hashes)


def merkle_hash(node: Element) -> str:
    """The Merkle hash of an element subtree."""
    child_hashes = [merkle_hash(child) for child in node.element_children]
    return node_hash(node.tag, content_hash(node), child_hashes)


def document_hash(document: Document) -> str:
    return merkle_hash(document.root)


@dataclass(frozen=True)
class FillerHashes:
    """Hashes for portions missing from a view.

    ``subtrees`` maps original node paths of fully pruned subtrees to
    their Merkle hashes; ``contents`` maps original node paths of
    content-stripped (connector/navigate) elements to their content
    hashes.  Paths use ``Element.node_path()`` of the *original* document.
    """

    subtrees: Mapping[str, str] = field(default_factory=dict)
    contents: Mapping[str, str] = field(default_factory=dict)

    def subtree(self, original_path: str) -> str:
        try:
            return self.subtrees[original_path]
        except KeyError:
            raise IntegrityError(
                f"missing filler hash for pruned subtree {original_path}"
            ) from None

    def __len__(self) -> int:
        return len(self.subtrees) + len(self.contents)


PRUNED_MARKER_TAG = "__pruned__"
PRUNED_PATH_ATTR = "path"


def make_pruned_marker(original_path: str) -> Element:
    """A placeholder element standing in for an elided subtree."""
    return Element(PRUNED_MARKER_TAG, {PRUNED_PATH_ATTR: original_path})


def is_pruned_marker(node: Element) -> bool:
    return node.tag == PRUNED_MARKER_TAG


def original_paths_of_view(view_root: Element,
                           root_path: str | None = None) -> dict[int, str]:
    """Map id(view node) -> its node path in the *original* document.

    Pruned markers occupy the sibling slots of the subtrees they replace,
    so original same-tag sibling indexes are recovered by counting markers
    under the tag recorded in their ``path`` attribute.
    """
    if root_path is None:
        root_path = f"/{view_root.tag}[1]"
    paths: dict[int, str] = {}

    def walk(node: Element, path: str) -> None:
        paths[id(node)] = path
        counters: dict[str, int] = {}
        for child in node.element_children:
            if is_pruned_marker(child):
                original = child.attributes.get(PRUNED_PATH_ATTR, "")
                tag = original.strip("/").split("/")[-1].split("[")[0]
                counters[tag] = counters.get(tag, 0) + 1
                paths[id(child)] = original
                continue
            counters[child.tag] = counters.get(child.tag, 0) + 1
            walk(child, f"{path}/{child.tag}[{counters[child.tag]}]")

    walk(view_root, root_path)
    return paths


def view_hash(view_root: Element, fillers: FillerHashes) -> str:
    """Recompute the original document's Merkle hash from a partial view.

    Content fillers are consulted *only* for elements whose visible local
    content is empty — an element carrying attributes or text is always
    hashed from what the receiver actually sees, so a publisher cannot
    mask tampered content behind a filler.
    """
    paths = original_paths_of_view(view_root)

    def compute(node: Element) -> str:
        if is_pruned_marker(node):
            return fillers.subtree(node.attributes[PRUNED_PATH_ATTR])
        stripped = not node.attributes and not node.text
        path = paths[id(node)]
        if stripped and path in fillers.contents:
            local = fillers.contents[path]
        else:
            local = content_hash(node)
        child_hashes = [compute(child) for child in node.element_children]
        return combine(_XML_NODE_PREFIX, node.tag, local, *child_hashes)

    return compute(view_root)


def verify_view(view_root: Element, fillers: FillerHashes,
                expected_root_hash: str) -> bool:
    """True if the partial view + fillers reproduce the signed root hash."""
    return view_hash(view_root, fillers) == expected_root_hash


def build_partial_view(root: Element, keep) -> tuple[Element, FillerHashes]:
    """Build a verifiable partial view of *root*.

    *keep* is a predicate over elements; subtrees rooted at a kept element
    are copied whole.  Ancestors of kept elements become content-stripped
    shells (their content hashes go into the fillers), every other subtree
    is replaced by a pruned marker with its Merkle hash in the fillers.

    Returns ``(view_root, fillers)`` such that
    ``view_hash(view_root, fillers) == merkle_hash(root)``.  This is the
    building block of the authenticated UDDI registry [4]: "the discovery
    agency sends the requestor a set of additional hash values, referring
    to the missing portions, that make it able to locally perform the
    computation of the summary signature".
    """
    subtrees: dict[str, str] = {}
    contents: dict[str, str] = {}

    def kept_below(node: Element) -> bool:
        return any(keep(d) for d in node.iter())

    def build(node: Element) -> Element:
        if keep(node):
            return node.deep_copy()
        if not kept_below(node):
            path = node.node_path()
            subtrees[path] = merkle_hash(node)
            return make_pruned_marker(path)
        shell = Element(node.tag)
        if node.attributes or node.text:
            contents[node.node_path()] = content_hash(node)
        for child in node.element_children:
            shell.append(build(child))
        return shell

    view_root = build(root)
    return view_root, FillerHashes(subtrees, contents)

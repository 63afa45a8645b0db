"""Authorized-view computation ([5]'s "algorithms for computing views").

Given a document and the per-element labels produced by
:class:`repro.xmlsec.authorx.XmlPolicyBase`, :func:`compute_view` builds
the portion of the document the subject may see:

* READ elements are kept whole (attributes + text);
* NAVIGATE elements keep tag and structure but lose attributes and text;
* inaccessible elements are removed — unless a descendant is accessible,
  in which case the element is kept as a bare *connector* so the view
  remains a tree (Author-X's "loose" connection handling).

Optionally, removed subtrees are replaced by pruned markers carrying their
original node path, which is what the third-party publishing protocol
needs to attach Merkle filler hashes (:mod:`repro.pubsub`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.subjects import Subject
from repro.merkle.xml_merkle import make_pruned_marker
from repro.xmldb.model import Document, Element
from repro.xmlsec.authorx import NodeLabel, XmlPolicyBase


@dataclass
class ViewStats:
    """Bookkeeping about one view computation (used by benchmarks)."""

    total_elements: int = 0
    read_elements: int = 0
    navigate_elements: int = 0
    connector_elements: int = 0
    pruned_subtrees: int = 0


def _visible_below_map(root: Element,
                       labels: dict[int, NodeLabel]) -> dict[int, bool]:
    """``id(node) -> does node's subtree contain anything visible``.

    One post-order pass; replaces the per-node subtree scan that made
    view building O(n²) on deep all-denied documents.
    """
    visible: dict[int, bool] = {}

    def walk(node: Element) -> bool:
        result = labels[id(node)].access != "none"
        for child in node.element_children:
            # No short-circuit: every node needs its own entry.
            result = walk(child) or result
        visible[id(node)] = result
        return result

    walk(root)
    return visible


def _build_view(node: Element, labels: dict[int, NodeLabel],
                visible_below: dict[int, bool],
                stats: ViewStats, with_markers: bool) -> Element | None:
    label = labels[id(node)]
    stats.total_elements += 1
    if label.access == "none" and not visible_below[id(node)]:
        stats.pruned_subtrees += 1
        if with_markers:
            return make_pruned_marker(node.node_path())
        return None

    if label.access == "read":
        clone = Element(node.tag, dict(node.attributes))
        stats.read_elements += 1
        keep_text = True
    elif label.access == "navigate":
        clone = Element(node.tag)
        stats.navigate_elements += 1
        keep_text = False
    else:
        # Connector: inaccessible itself but an ancestor of something
        # visible; keep the bare tag so the tree stays connected.
        clone = Element(node.tag)
        stats.connector_elements += 1
        keep_text = False

    for child in node.children:
        if isinstance(child, str):
            if keep_text:
                clone.append(child)
            continue
        built = _build_view(child, labels, visible_below, stats,
                            with_markers)
        if built is not None:
            clone.append(built)
    return clone


def compute_view(policy_base: XmlPolicyBase, subject: Subject,
                 doc_id: str, document: Document,
                 with_markers: bool = False
                 ) -> tuple[Document | None, ViewStats]:
    """The portion of *document* that *subject* is authorized to see.

    Returns ``(view, stats)``; *view* is None when nothing at all is
    visible.  With ``with_markers=True`` pruned subtrees leave
    ``__pruned__`` placeholder elements (for Merkle verification);
    connectors and markers never reveal content.
    """
    labels = policy_base.label_document(subject, doc_id, document)
    stats = ViewStats()
    visible_below = _visible_below_map(document.root, labels)
    root_view = _build_view(document.root, labels, visible_below, stats,
                            with_markers)
    if root_view is None or (
            not with_markers
            and stats.read_elements == 0
            and stats.navigate_elements == 0):
        return None, stats
    from repro.merkle.xml_merkle import is_pruned_marker
    if is_pruned_marker(root_view):
        return None, stats
    return Document(root_view, name=f"{document.name}@view"), stats


def visible_element_count(policy_base: XmlPolicyBase, subject: Subject,
                          doc_id: str, document: Document) -> int:
    """How many elements the subject can see (read or navigate)."""
    labels = policy_base.label_document(subject, doc_id, document)
    return sum(1 for node in document.iter()
               if labels[id(node)].access != "none")

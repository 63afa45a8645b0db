"""Path indexes for XML queries (§2.1: "appropriate index strategies and
access methods ... are needed").

A :class:`PathIndex` over a document (or a whole collection) maps

* tag name → elements with that tag, in document order;
* (tag, attribute, value) → elements carrying that attribute value;
* (tag, child tag, text) → elements with a matching child's text —

which covers the hot XPath-lite shapes ``//tag``, ``//tag[@a='v']`` and
``//tag[child='v']``.  :func:`indexed_select` answers those shapes from
the index and transparently falls back to the naive engine for anything
else, so results are always identical to :func:`repro.xmldb.xpath.evaluate`
(a property test asserts this).  Benchmark A1 counts the elements each
strategy examines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmldb.model import Document, Element
from repro.xmldb.xpath import Step, XPath, compile_xpath, select_elements


class PathIndex:
    """An inverted index over one element tree.

    The index records the tree's mutation counter at build time
    (:meth:`Element.tree_version`); after any tracked in-place edit it
    reports :attr:`stale` and :func:`indexed_select` /
    :class:`QueryCostModel` transparently :meth:`refresh` it before
    answering, so index-served results can never lag the document.
    """

    def __init__(self, root: Element) -> None:
        self._root = root
        self._by_tag: dict[str, list[Element]] = {}
        self._by_attr: dict[tuple[str, str, str], list[Element]] = {}
        self._by_child_text: dict[tuple[str, str, str],
                                  list[Element]] = {}
        self._built_version = -1
        self.rebuilds = 0
        self._build()

    @property
    def stale(self) -> bool:
        """Has the tree mutated since the index was (re)built?"""
        return self._built_version != self._root.tree_version()

    def refresh(self) -> None:
        """Rebuild the postings from the current tree state."""
        self._by_tag.clear()
        self._by_attr.clear()
        self._by_child_text.clear()
        self._build()

    def ensure_fresh(self) -> None:
        if self.stale:
            self.refresh()

    def _build(self) -> None:
        self._built_version = self._root.tree_version()
        self.rebuilds += 1
        for node in self._root.iter():
            self._by_tag.setdefault(node.tag, []).append(node)
            for name, value in node.attributes.items():
                self._by_attr.setdefault(
                    (node.tag, name, value), []).append(node)
            parent = node.parent
            if parent is not None and node.text:
                self._by_child_text.setdefault(
                    (parent.tag, node.tag, node.text), [])
                bucket = self._by_child_text[
                    (parent.tag, node.tag, node.text)]
                if not bucket or bucket[-1] is not parent:
                    bucket.append(parent)

    def by_tag(self, tag: str) -> list[Element]:
        return list(self._by_tag.get(tag, ()))

    def by_attribute(self, tag: str, attribute: str,
                     value: str) -> list[Element]:
        return list(self._by_attr.get((tag, attribute, value), ()))

    def by_child_text(self, tag: str, child_tag: str,
                      text: str) -> list[Element]:
        return list(self._by_child_text.get((tag, child_tag, text), ()))

    def posting_count(self, step: Step) -> int:
        """Length of the posting list an indexable *step* reads (no copy)."""
        if not step.predicates:
            return len(self._by_tag.get(step.test, ()))
        predicate = step.predicates[0]
        if predicate.kind == "attr-equals":
            return len(self._by_attr.get(
                (step.test, predicate.attribute, predicate.value), ()))
        return len(self._by_child_text.get(
            (step.test, predicate.path[0], predicate.value), ()))

    def entry_count(self) -> int:
        return (sum(len(v) for v in self._by_tag.values())
                + sum(len(v) for v in self._by_attr.values())
                + sum(len(v) for v in self._by_child_text.values()))


def _indexable_step(path: XPath) -> Step | None:
    """The single descendant step of an index-answerable expression."""
    if not path.absolute or len(path.steps) != 1:
        return None
    step = path.steps[0]
    if step.axis != "descendant" or step.test in ("*", "text()") \
            or step.test.startswith("@"):
        return None
    if len(step.predicates) > 1:
        return None
    if step.predicates:
        predicate = step.predicates[0]
        if predicate.kind == "attr-equals":
            return step
        if predicate.kind == "equals" and len(predicate.path) == 1:
            return step
        return None
    return step


def indexed_select(index: PathIndex, path: XPath | str,
                   context: Document | Element) -> list[Element]:
    """Element selection answered from the index when possible.

    Falls back to the naive engine for non-indexable shapes; results are
    always exactly those of ``select_elements``.  The root element is
    excluded for descendant steps (XPath semantics: '//x' from the
    document selects descendants-or-self of the root *element*'s parent,
    which our engine models as excluding the root itself only when it is
    the context — mirrored here by delegating root handling to the
    fallback when the root tag matches).
    """
    if isinstance(path, str):
        path = compile_xpath(path)
    step = _indexable_step(path)
    if step is None:
        return select_elements(path, context)
    index.ensure_fresh()
    root = context.root if isinstance(context, Document) else context
    if root.tag == step.test:
        # '//tag' never matches the context root in our engine; the
        # index includes it, so defer to the engine for this rare case.
        return select_elements(path, context)
    if not step.predicates:
        return index.by_tag(step.test)
    predicate = step.predicates[0]
    if predicate.kind == "attr-equals":
        return index.by_attribute(step.test, predicate.attribute,
                                  predicate.value)
    return index.by_child_text(step.test, predicate.path[0],
                               predicate.value)


@dataclass
class QueryCostModel:
    """The §2.1 'special cost model': decides scan vs index per query.

    Cost estimates in visited-element units: a scan touches every
    element; an index probe touches the posting list the query reads
    (by tag, attribute value or child text).  ``estimate``
    returns ("index" | "scan", estimated_cost) and
    :meth:`run` executes accordingly, recording its decisions for
    benchmark A1.
    """

    index: PathIndex
    document_size: int
    decisions: dict[str, int] = field(
        default_factory=lambda: {"index": 0, "scan": 0})

    def estimate(self, path: XPath | str) -> tuple[str, int]:
        if isinstance(path, str):
            path = compile_xpath(path)
        step = _indexable_step(path)
        if step is None:
            return "scan", self.document_size
        self.index.ensure_fresh()
        return "index", max(self.index.posting_count(step), 1)

    def run(self, path: XPath | str,
            context: Document | Element) -> list[Element]:
        strategy, _cost = self.estimate(path)
        self.decisions[strategy] += 1
        if strategy == "index":
            return indexed_select(self.index, path, context)
        return select_elements(path, context)

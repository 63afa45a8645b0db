"""Immutable XML trees with structural sharing (persistent-map style).

A :class:`FrozenElement` is the snapshot layer's node type: tag,
attribute dict (never mutated after construction) and a children tuple
of ``FrozenElement | str``.  Two properties make it the right substrate
for copy-on-write snapshots:

* **no parent pointer** — a subtree can sit in any number of trees at
  once, so an edit rebuilds only the root-to-target spine
  (:func:`replace_spine`) and shares every untouched sibling subtree by
  reference with the previous version;
* **identity is history** — an unchanged subtree in the next epoch *is*
  the same Python object, which is what lets the interning caches
  (:mod:`repro.snap.intern`) reuse serialized bytes and Merkle hashes
  across epochs with a plain identity-keyed lookup.

A point edit pays for its path, not for its siblings: each node's
**child index** (tag → slots; :func:`_child_index`) finds ``tag[k]``
in one lookup.

Frozen nodes duck-type the read surface of
:class:`~repro.xmldb.model.Element` (``tag`` / ``attributes`` /
``children`` / ``element_children`` / ``text`` / ``iter`` / ``find`` /
``find_all``), so the XPath evaluator and the canonical serializer work
on them unmodified — byte-identical to the live mutable tree, which the
snapshot equivalence oracles depend on.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from typing import Callable, Iterator

from repro.core.errors import SnapshotError
from repro.xmldb.model import Document, Element
from repro.xmldb.parser import parse_tree


#: Shared by every attribute-less node (a plain dict, so nodes stay
#: picklable); nothing writes attributes in place, edits copy first.
_NO_ATTRIBUTES: dict[str, str] = {}


class FrozenElement:
    """One immutable XML element; treat ``attributes`` as read-only.
    ``_index`` is derived state (:func:`_child_index`), never pickled."""

    __slots__ = ("tag", "attributes", "children", "_index")

    def __init__(self, tag: str, attributes: dict[str, str] | None = None,
                 children: tuple = ()) -> None:
        self.tag = tag
        self.attributes: dict[str, str] = attributes or _NO_ATTRIBUTES
        self.children: tuple = children
        self._index: _ChildIndex | None = None

    def __reduce__(self):
        return FrozenElement, (self.tag, self.attributes, self.children)

    # -- Element-compatible read surface --------------------------------

    @property
    def element_children(self) -> list["FrozenElement"]:
        return [c for c in self.children if not isinstance(c, str)]

    @property
    def text(self) -> str:
        return "".join(c for c in self.children if isinstance(c, str))

    def iter(self) -> Iterator["FrozenElement"]:
        """Depth-first pre-order, iterative so depth is unbounded."""
        stack: list[FrozenElement] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.element_children))

    def find(self, tag: str) -> "FrozenElement | None":
        for child in self.children:
            if not isinstance(child, str) and child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["FrozenElement"]:
        return [c for c in self.children
                if not isinstance(c, str) and c.tag == tag]

    def size(self) -> int:
        return sum(1 for _ in self.iter())

    def __repr__(self) -> str:
        return (f"<FrozenElement {self.tag} attrs={len(self.attributes)} "
                f"children={len(self.children)}>")


class FrozenDocument:
    """An immutable document: a name plus a frozen root.

    ``version`` is constant (snapshots never mutate), so a cache key
    that carries the version — the coherence rule of
    :mod:`repro.core.cache` — never moves for a frozen document, and a
    value computed from one is fresh for as long as its key exists.
    """

    __slots__ = ("root", "name")

    def __init__(self, root: FrozenElement, name: str = "") -> None:
        self.root = root
        self.name = name

    @property
    def version(self) -> int:
        return 0

    def iter(self) -> Iterator[FrozenElement]:
        return self.root.iter()

    def size(self) -> int:
        return self.root.size()

    def __repr__(self) -> str:
        return (f"FrozenDocument({self.name!r}, root=<{self.root.tag}>, "
                f"{self.size()} elements)")


# -- parsing, freezing and thawing ---------------------------------------


def parse_frozen(text: str, name: str = "") -> FrozenDocument:
    """Parse *text* straight into frozen form: the same tokens, checks
    and offsets as :func:`repro.xmldb.parser.parse`, with no mutable
    DOM built on the way."""
    return FrozenDocument(parse_tree(text, FrozenElement), name)


def _rebuild(node, element: Callable):
    """Copy the tree under *node* into ``element(tag, attributes,
    children)`` nodes, bottom-up with an explicit stack so depth is
    bounded by memory, not the recursion limit."""
    stack: list[tuple] = [(node, iter(node.children), [])]
    while True:
        current, pending, built = stack[-1]
        for child in pending:
            if isinstance(child, str):
                built.append(child)
            else:
                stack.append((child, iter(child.children), []))
                break
        else:
            stack.pop()
            copy = element(current.tag, dict(current.attributes),
                           tuple(built))
            if not stack:
                return copy
            stack[-1][2].append(copy)


def freeze_element(node: Element) -> FrozenElement:
    """One structural copy of a mutable tree into frozen form.

    Paid once per :class:`~repro.xmldb.model.Document` handed to the
    store (text goes through :func:`parse_frozen`); every subsequent
    edit is a spine copy and every ``freeze()`` of the store is O(1).
    """
    return _rebuild(node, FrozenElement)


def freeze_document(document: Document) -> FrozenDocument:
    return FrozenDocument(freeze_element(document.root), document.name)


def thaw_element(node: FrozenElement) -> Element:
    """Materialize a mutable :class:`Element` tree (parent pointers,
    node paths) from a frozen one.  The result is structure-equal and
    serializes byte-identically."""
    return _rebuild(node, Element)


def thaw_document(document: FrozenDocument) -> Document:
    return Document(thaw_element(document.root), document.name)


# -- node addressing ----------------------------------------------------

_SEGMENT = re.compile(r"^([^\[\]]+)(?:\[(\d+)\])?$")


@lru_cache(maxsize=4096)
def _parse_path(path: str) -> tuple[tuple[str, int], ...]:
    """``/a/b[2]/c`` → ``(("a", 1), ("b", 2), ("c", 1))`` (1-based).
    Memoised: writers address the same few paths edit after edit."""
    stripped = path.strip("/")
    if not stripped:
        raise SnapshotError(f"empty node path {path!r}")
    segments: list[tuple[str, int]] = []
    for raw in stripped.split("/"):
        match = _SEGMENT.match(raw)
        if match is None:
            raise SnapshotError(f"bad node path segment {raw!r} in {path!r}")
        position = int(match.group(2) or 1)
        if position < 1:
            raise SnapshotError(f"positions are 1-based: {raw!r} in {path!r}")
        segments.append((match.group(1), position))
    return tuple(segments)


class _ChildIndex(dict):
    """``tag -> [slot, ...]``: where each tag's elements sit in a
    node's ``children``, in document order.  Read-only once built."""

    __slots__ = ("__weakref__",)


#: child shape (the tag of each child slot, ``None`` for text) -> its
#: index.  Every node of one shape shares one index, and a shape lives
#: only while some node holds its index, so the table needs no bound.
_SHAPES: "weakref.WeakValueDictionary[tuple, _ChildIndex]" = (
    weakref.WeakValueDictionary())


def _child_index(node: FrozenElement) -> _ChildIndex:
    """Fill *node*'s child index (``None`` until a path is resolved
    through it; a spine copy whose changed slot keeps its tag inherits
    it).  A reader thread may fill it too: racing fills store equal
    values, so either is right."""
    shape = tuple([None if isinstance(child, str) else child.tag
                   for child in node.children])
    index = _SHAPES.get(shape)
    if index is None:
        index = _ChildIndex()
        for slot, tag in enumerate(shape):
            if tag is not None:
                index.setdefault(tag, []).append(slot)
        index = _SHAPES.setdefault(shape, index)
    node._index = index
    return index


def resolve_spine(root: FrozenElement, path: str
                  ) -> list[tuple[FrozenElement, int]]:
    """Walk *path* from *root*, returning the copy-on-write spine.

    The result is ``[(parent, child_slot), ...]`` from the root down:
    each entry names the position (in ``parent.children``) of the next
    node on the path.  The addressed node itself is
    ``spine[-1][0].children[spine[-1][1]]`` — or *root* when the path
    has exactly one segment.  Each step is one child-index lookup: no
    sibling is visited once the node's index exists.
    """
    segments = _parse_path(path)
    head_tag, head_position = segments[0]
    if root.tag != head_tag or head_position != 1:
        raise SnapshotError(
            f"path {path!r} does not start at root <{root.tag}>")
    spine: list[tuple[FrozenElement, int]] = []
    node = root
    for tag, position in segments[1:]:
        index = node._index
        if index is None:
            index = _child_index(node)
        try:
            slot = index[tag][position - 1]
        except (KeyError, IndexError):
            raise SnapshotError(
                f"no element {tag}[{position}] under <{node.tag}> "
                f"for path {path!r}") from None
        spine.append((node, slot))
        node = node.children[slot]
    return spine


def _target(root: FrozenElement,
            spine: list[tuple[FrozenElement, int]]) -> FrozenElement:
    if not spine:
        return root
    parent, slot = spine[-1]
    return parent.children[slot]


def resolve(root: FrozenElement, path: str) -> FrozenElement:
    """The frozen node addressed by a position-qualified *path*."""
    return _target(root, resolve_spine(root, path))


def replace_spine(root: FrozenElement,
                  spine: list[tuple[FrozenElement, int]],
                  replacement: FrozenElement | None) -> FrozenElement:
    """Rebuild the spine with *replacement* at the bottom.

    ``replacement=None`` deletes the addressed node.  Every node not on
    the spine is shared by reference with the previous version — the
    copy-on-write step.  A copy whose changed slot keeps its tag keeps
    its child shape, so it inherits the original's child index.
    """
    if not spine:
        if replacement is None:
            raise SnapshotError("cannot delete the document root")
        return replacement
    new_child: FrozenElement | None = replacement
    for parent, slot in reversed(spine):
        children = list(parent.children)
        if new_child is None:
            del children[slot]
            new_child = FrozenElement(parent.tag, parent.attributes,
                                      tuple(children))
            continue
        same_shape = new_child.tag == children[slot].tag
        children[slot] = new_child
        new_child = FrozenElement(parent.tag, parent.attributes,
                                  tuple(children))
        if same_shape:
            new_child._index = parent._index
    return new_child


# -- copy-on-write point edits ------------------------------------------


def with_text(root: FrozenElement, path: str, text: str) -> FrozenElement:
    """New root where the node at *path* has its text replaced."""
    spine = resolve_spine(root, path)
    node = _target(root, spine)
    children = tuple([c for c in node.children if not isinstance(c, str)])
    if text:
        children = (text,) + children
    return replace_spine(root, spine,
                         FrozenElement(node.tag, node.attributes, children))


def with_attribute(root: FrozenElement, path: str,
                   name: str, value: str) -> FrozenElement:
    spine = resolve_spine(root, path)
    node = _target(root, spine)
    attributes = dict(node.attributes)
    attributes[name] = value
    return replace_spine(root, spine,
                         FrozenElement(node.tag, attributes, node.children))


def without_attribute(root: FrozenElement, path: str,
                      name: str) -> FrozenElement:
    spine = resolve_spine(root, path)
    node = _target(root, spine)
    if name not in node.attributes:
        return root
    attributes = dict(node.attributes)
    del attributes[name]
    return replace_spine(root, spine,
                         FrozenElement(node.tag, attributes, node.children))


def with_appended_child(root: FrozenElement, path: str,
                        child: FrozenElement) -> FrozenElement:
    spine = resolve_spine(root, path)
    node = _target(root, spine)
    return replace_spine(
        root, spine,
        FrozenElement(node.tag, node.attributes, node.children + (child,)))


def without_child(root: FrozenElement, path: str) -> FrozenElement:
    """New root with the element at *path* removed (path names the
    child itself, e.g. ``/doc[1]/item[2]``)."""
    spine = resolve_spine(root, path)
    return replace_spine(root, spine, None)


def shared_nodes(old: FrozenElement, new: FrozenElement) -> int:
    """How many of *new*'s elements are shared (by identity) with *old*
    — the structural-sharing metric benchmarks and tests assert on."""
    old_ids = {id(node) for node in old.iter()}
    return sum(1 for node in new.iter() if id(node) in old_ids)

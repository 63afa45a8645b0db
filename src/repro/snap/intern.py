"""Identity-keyed interning of derived artifacts (zero-copy reads).

Because frozen subtrees are shared by reference across snapshots, the
*object identity* of a :class:`~repro.snap.frozen.FrozenElement` is a
perfect cache key: if two epochs contain the same node object, every
artifact derived from that subtree — its canonical serialization, its
Merkle hash, a thawed mutable copy — is identical too.  The
:class:`InternPool` exploits this with three bounded caches keyed by the
node objects themselves (which hash by identity; holding them as keys
also pins them, so a collected node's recycled ``id()`` can never alias
an entry):

* **fragments** — canonical serialized bytes per subtree, filled by
  :func:`serialize_pieces`, the one walk that serializes frozen trees
  (streams, :meth:`InternPool.serialize`, checkpoint capture).  The
  *maximal* subtree whose bytes fit in :data:`DEFAULT_CHUNK_SIZE`
  characters is one ``str``; a larger element is a **rope**: a tuple
  of its own markup (tags, text, leaf children) and references to its
  children's fragments.  No byte is held twice and no entry owns more
  than a chunk of characters (unless one text run is longer); leaves
  are neither probed nor interned.  The walk hands its output on in
  coalesced runs of about a chunk, not a piece per tag.  A warm read
  is one probe and one join, and a point edit re-serializes only the
  spine it copied;
* **merkle** — Merkle subtree hashes, composed with the same
  :func:`repro.merkle.xml_merkle.node_hash` recurrence as the live
  hashers, so snapshot root hashes are interchangeable with theirs;
* **thawed** — mutable :class:`~repro.xmldb.model.Document` copies
  keyed by frozen root, for consumers that need parent pointers and
  node paths (view computation, dissemination).  Treat them as
  read-only.

The pool is shared across epochs on purpose — that is where the
cross-epoch reuse the benchmarks measure comes from.  All three caches
are plain :class:`~repro.core.cache.LRUCache` instances keyed by node
identity (frozen state never mutates, so an entry can never go stale,
only cold).  Fragment hit rates are low by construction: one
hit per warm read against one miss per non-leaf element walked cold.
"""

from __future__ import annotations

from typing import Iterator

from repro.merkle.xml_merkle import content_hash, node_hash
from repro.core.cache import LRUCache, MISS
from repro.snap.frozen import FrozenDocument, FrozenElement, thaw_document
from repro.xmldb.model import Document
from repro.xmldb.serializer import escape_attribute, escape_text

#: The interning unit and the default stream chunk (characters): small
#: enough to interleave with writers, large enough to amortize a chunk.
DEFAULT_CHUNK_SIZE = 4096


def _open_tag(node: FrozenElement) -> str:
    """``<tag a="1" b="2"`` — canonical, closing bracket left open."""
    if not node.attributes:
        return "<" + node.tag
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"'
        for name, value in sorted(node.attributes.items()))
    return f"<{node.tag}{attrs}"


def _leaf(node: FrozenElement) -> str | None:
    """Canonical bytes of an element with no element child, or None."""
    children = node.children
    for child in children:
        if not isinstance(child, str):
            return None
    if not children:
        return _open_tag(node) + "/>"
    text = "".join(children)
    if "&" in text or "<" in text or ">" in text:
        text = escape_text(text)
    return f"{_open_tag(node)}>{text}</{node.tag}>"


def _flat(rope: tuple) -> str:
    """The bytes of *rope*.  A level of strings — every level of a
    document whose children fit in a chunk — is joined straight from
    the tuple; nested ropes are walked with an explicit stack, so depth
    is bounded by memory, not the recursion limit, and joined once."""
    try:
        return "".join(rope)        # a level of strings: the common case
    except TypeError:               # the level holds nested ropes
        pass
    pieces: list[str] = []
    stack = [iter(rope)]
    while stack:
        for piece in stack[-1]:
            if isinstance(piece, tuple):
                stack.append(iter(piece))
                break
            pieces.append(piece)
        else:
            stack.pop()
    return "".join(pieces)


def serialize_pieces(node: FrozenElement,
                     pool: "InternPool | None" = None) -> Iterator[str]:
    """The canonical serialization of *node* (byte-identical to
    :func:`repro.xmldb.serializer.serialize_element`) as coalesced runs
    in document order, interning into *pool* on the way up (``None``:
    into a private cache that dies with the walk).

    Output is buffered and handed on at the first close tag after a
    run reaches :data:`DEFAULT_CHUNK_SIZE` characters, and once at the
    end, so a warm document (one pool hit) is one piece.  An element's
    fragment enters the pool only after its close tag has been
    produced, so an abandoned walk leaves the pool consistent.
    """
    fragments = LRUCache(1) if pool is None else pool._fragments
    # A frame per open element: it, its children to come, the pieces
    # of its fragment so far, where its bytes start in the output, the
    # (child, str) pairs serialized here — maximal, so interned, once
    # it outgrows a chunk or is the caller.  Every rope is longer than
    # a chunk, so "fits in a chunk" is just the element's length.
    frames: list[tuple] = []
    owner, pending, pieces, start, fresh = None, iter((node,)), [], 0, []
    out: list[str] = []
    written = flushed = 0
    while True:
        for child in pending:
            if isinstance(child, str):
                piece = escape_text(child)
            else:
                piece = _leaf(child)
                if piece is None:
                    piece = fragments.get(child)
                    if piece is MISS:
                        frames.append((owner, pending, pieces, start, fresh))
                        piece = _open_tag(child) + ">"
                        owner, pending, pieces, start, fresh = (
                            child, iter(child.children), [piece], written,
                            [])
                        out.append(piece)
                        written += len(piece)
                        break
                    if isinstance(piece, tuple):
                        pieces.append(piece)
                        piece = _flat(piece)
                        out.append(piece)
                        written += len(piece)
                        continue
            pieces.append(piece)
            out.append(piece)
            written += len(piece)
        else:
            if owner is None:
                break
            piece = f"</{owner.tag}>"
            pieces.append(piece)
            out.append(piece)
            written += len(piece)
            small = written - start <= DEFAULT_CHUNK_SIZE
            fragment = "".join(pieces) if small else tuple(pieces)
            if not small:
                for entry in fresh:
                    fragments.put(*entry)
                fragments.put(owner, fragment)
            child = owner
            owner, pending, pieces, start, fresh = frames.pop()
            pieces.append(fragment)
            if small:
                fresh.append((child, fragment))
            if written - flushed >= DEFAULT_CHUNK_SIZE:
                yield "".join(out)
                out = []
                flushed = written
    for entry in fresh:
        fragments.put(*entry)
    if out:
        yield "".join(out)


class InternPool:
    """Shared caches of per-subtree artifacts, keyed by node identity."""

    def __init__(self, fragment_capacity: int = 200_000,
                 merkle_capacity: int = 200_000,
                 thawed_capacity: int = 256) -> None:
        self._fragments = LRUCache(maxsize=fragment_capacity)
        self._merkle = LRUCache(maxsize=merkle_capacity)
        self._thawed = LRUCache(maxsize=thawed_capacity)

    # -- canonical serialization ----------------------------------------

    def serialize(self, node: FrozenElement) -> str:
        """Canonical serialization of *node*, reusing (and filling) the
        fragment cache (byte-identical to
        :func:`repro.xmldb.serializer.serialize_element`)."""
        return "".join(serialize_pieces(node, self))

    def serialize_document(self, document: FrozenDocument) -> str:
        return self.serialize(document.root)

    # -- Merkle hashing --------------------------------------------------

    def merkle(self, node: FrozenElement) -> str:
        """Merkle hash of *node*'s subtree, reusing hashes of shared
        subtrees across requests and epochs."""
        cached = self._merkle.get(node)
        if cached is not MISS:
            return cached
        memo: dict[int, str] = {}
        stack: list[tuple[FrozenElement, bool]] = [(node, False)]
        while stack:
            current, ready = stack.pop()
            if ready:
                child_hashes = [memo[id(child)]
                                for child in current.element_children]
                value = node_hash(current.tag, content_hash(current),
                                  child_hashes)
                memo[id(current)] = value
                self._merkle.put(current, value)
                continue
            if id(current) in memo:
                continue
            if current is not node:
                hit = self._merkle.get(current)
                if hit is not MISS:
                    memo[id(current)] = hit
                    continue
            stack.append((current, True))
            for child in current.element_children:
                stack.append((child, False))
        return memo[id(node)]

    def merkle_document(self, document: FrozenDocument) -> str:
        return self.merkle(document.root)

    # -- thawed documents ------------------------------------------------

    def thawed(self, document: FrozenDocument) -> Document:
        """A mutable copy of *document*, cached by frozen-root identity.

        The same object is returned for every epoch that shares the
        root, so downstream caches keyed by the document (views,
        dissemination payloads) hit across epochs.  Callers must treat
        the result as read-only.
        """
        cached = self._thawed.get(document.root)
        if cached is not MISS:
            return cached
        thawed = thaw_document(document)
        self._thawed.put(document.root, thawed)
        return thawed

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, dict[str, int | float]]:
        return {"fragments": self._fragments.stats.snapshot(),
                "merkle": self._merkle.stats.snapshot(),
                "thawed": self._thawed.stats.snapshot()}

    def clear(self) -> None:
        self._fragments.clear()
        self._merkle.clear()
        self._thawed.clear()

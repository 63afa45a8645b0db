"""Identity-keyed interning of derived artifacts (zero-copy reads).

Because frozen subtrees are shared by reference across snapshots, the
*object identity* of a :class:`~repro.snap.frozen.FrozenElement` is a
perfect cache key: if two epochs contain the same node object, every
artifact derived from that subtree — its canonical serialization, its
Merkle hash — is identical too.  The :class:`InternPool` exploits this
with two bounded caches keyed by the node objects themselves (which
hash by identity; holding them as keys also pins them, so a collected
node's recycled ``id()`` can never alias an entry):

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
  is one probe and one join; a read after a write costs the write
  (:meth:`InternPool.derive`: two probes, the edited leaves spliced
  into their records' strings) unless nobody read the old version;
* **merkle** — Merkle subtree hashes, composed with the same
  :func:`repro.merkle.xml_merkle.node_hash` recurrence as the live
  hashers, so snapshot root hashes are interchangeable with theirs.

The pool is shared across epochs on purpose — that is where the
cross-epoch reuse of unchanged subtrees comes from.  Both caches
are plain :class:`~repro.core.cache.LRUCache` instances keyed by node
identity (frozen state never mutates, so an entry can never go stale,
only cold).  Fragment hit rates are low by construction: one hit per
warm read, one miss per non-leaf element walked cold, one of each per
derived read.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.merkle.xml_merkle import content_hash, node_hash
from repro.core.cache import LRUCache, MISS
from repro.snap.frozen import FrozenDocument, FrozenElement
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


def _markup(child) -> str | None:
    """A text run's or a leaf's bytes; None for a non-leaf element."""
    return escape_text(child) if isinstance(child, str) else _leaf(child)


def _splice(node: FrozenElement, base, string: str) -> str | None:
    """*string*, *base*'s bytes, edited into *node*'s (None if the shape
    differs or they outgrow a chunk): each changed text, leaf or open
    tag is replaced where its old bytes occur, if exactly once."""
    edits: list[tuple[str | None, str]] = []
    pairs = [(node, base)]
    while pairs:
        new, old = pairs.pop()
        if (isinstance(old, str) or new.tag != old.tag
                or len(new.children) != len(old.children)):
            return None
        if new.attributes is not old.attributes:
            edits.append((_open_tag(old) + ">", _open_tag(new) + ">"))
        for child, was in zip(new.children, old.children):
            if child is not was:
                after = _markup(child)
                if after is None:
                    pairs.append((child, was))
                else:
                    edits.append((_markup(was), after))
    for before, after in edits:
        at = -1 if before is None else string.find(before)
        if at < 0 or string.find(before, at + 1) >= 0:
            return None
        string = string[:at] + after + string[at + len(before):]
    return string if len(string) <= DEFAULT_CHUNK_SIZE else None


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
                    if piece is MISS and child is node and pool is not None:
                        piece = pool.derive(child)
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
                 merkle_capacity: int = 200_000) -> None:
        self._fragments = LRUCache(maxsize=fragment_capacity)
        self._merkle = LRUCache(maxsize=merkle_capacity)
        # new root -> its document's last version a reader interned.
        self._bases: dict[FrozenElement, FrozenElement] = {}
        self._bases_lock = threading.Lock()

    def supersede(self, pairs) -> None:
        """Record, per ``(superseded root, new root)`` pair, the base the
        new root derives from: the superseded root if interned, else its
        own base.  A new root of ``None`` only drops the old entry."""
        fragments = self._fragments
        with self._bases_lock:
            for old, new in pairs:
                inherited = self._bases.pop(old, None)
                base = old if old in fragments else inherited
                if new is not None and base in fragments:
                    self._bases[new] = base

    def derive(self, node: FrozenElement):
        """*node*'s fragment derived from its base (interning what a cold
        walk would; racing derivations put equal values), or :data:`MISS`.
        Unchanged children keep their pieces by reference; a changed
        small child is spliced; a changed rope is left to the walk."""
        base = self._bases.get(node)
        fragment = MISS if base is None else self._fragments.get(base)
        entries: list[tuple] = []
        if isinstance(fragment, str):
            fragment = _splice(node, base, fragment)
        elif fragment is not MISS:
            if (node.tag != base.tag
                    or len(node.children) != len(base.children)):
                return MISS
            pieces = [fragment[0] if node.attributes is base.attributes
                      else _open_tag(node) + ">"]
            for child, old, piece in zip(node.children, base.children,
                                         fragment[1:-1]):
                if child is not old:
                    markup = _markup(child)
                    if markup is None:
                        markup = (None if isinstance(piece, tuple)
                                  else _splice(child, old, piece))
                        if markup is None:
                            return MISS
                        entries.append((child, markup))
                    piece = markup
                pieces.append(piece)
            pieces.append(fragment[-1])
            if all(isinstance(piece, str) for piece in pieces) and sum(
                    map(len, pieces)) <= DEFAULT_CHUNK_SIZE:
                return MISS                 # it shrank into a chunk
            fragment = tuple(pieces)
        if fragment is None or fragment is MISS:
            return MISS
        for entry in [*entries, (node, fragment)]:
            self._fragments.put(*entry)
        return fragment

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

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, dict[str, int | float]]:
        return {"fragments": self._fragments.stats.snapshot(),
                "merkle": self._merkle.stats.snapshot()}

    def clear(self) -> None:
        self._fragments.clear()
        self._merkle.clear()
        with self._bases_lock:
            self._bases.clear()

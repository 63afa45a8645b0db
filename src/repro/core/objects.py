"""Protection objects: the *what* of an access request.

Web resources are naturally hierarchical — a site contains collections,
collections contain documents, documents contain elements.  The paper's
§3.2 demands "a wide spectrum of access granularity levels, ranging from
sets of documents, to single documents, to specific portions within a
document".  We model this with slash-separated :class:`ResourcePath` values
("hospital/records/r17/diagnosis") plus glob-style patterns, so a single
policy can protect a whole subtree of the resource space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class ResourcePath:
    """An absolute, slash-separated path in the protection-object hierarchy.

    Paths are normalized: no empty segments, no leading/trailing slash
    stored internally.  The root path is ``ResourcePath("")`` whose
    ``segments`` is the empty tuple.
    """

    segments: tuple[str, ...]

    def __init__(self, path: "ResourcePath | str | Iterable[str]" = ()) -> None:
        if isinstance(path, ResourcePath):
            segments = path.segments
        elif isinstance(path, str):
            segments = tuple(s for s in path.split("/") if s)
        else:
            segments = tuple(path)
            if any("/" in s or not s for s in segments):
                raise ConfigurationError(
                    f"invalid path segments: {segments!r}")
        object.__setattr__(self, "segments", segments)

    def __str__(self) -> str:
        return "/".join(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def name(self) -> str:
        """The last segment, or '' for the root."""
        return self.segments[-1] if self.segments else ""

    @property
    def parent(self) -> "ResourcePath":
        """The enclosing path; the root is its own parent."""
        return ResourcePath(self.segments[:-1])

    def child(self, segment: str) -> "ResourcePath":
        if "/" in segment or not segment:
            raise ConfigurationError(f"invalid path segment {segment!r}")
        return ResourcePath(self.segments + (segment,))

    def join(self, other: "ResourcePath | str") -> "ResourcePath":
        other = ResourcePath(other)
        return ResourcePath(self.segments + other.segments)

    def is_ancestor_of(self, other: "ResourcePath",
                       strict: bool = False) -> bool:
        """True if *other* lives under this path (reflexive by default)."""
        if strict and len(other) <= len(self):
            return False
        return other.segments[:len(self)] == self.segments

    def ancestors(self, include_self: bool = True) -> Iterator["ResourcePath"]:
        """Yield the path, its parent, ... up to the root."""
        start = len(self) if include_self else len(self) - 1
        for length in range(start, -1, -1):
            yield ResourcePath(self.segments[:length])


def is_glob(segment: str) -> bool:
    """True when a pattern segment is a glob rather than a literal."""
    return "*" in segment or "?" in segment or "[" in segment


@dataclass(frozen=True)
class ResourcePattern:
    """Glob pattern over resource paths, one glob per segment.

    ``*`` matches one whole segment, ``**`` (as a full segment) matches any
    number of segments including zero, and ordinary fnmatch globbing
    applies within a segment (``r*`` matches ``r17``).  Examples::

        ResourcePattern("hospital/records/*")           # every record
        ResourcePattern("hospital/**/diagnosis")        # any diagnosis
        ResourcePattern("hospital/records/r17")         # one exact object
    """

    segments: tuple[str, ...]

    def __init__(self, pattern: "ResourcePattern | str | Iterable[str]") -> None:
        if isinstance(pattern, ResourcePattern):
            segments = pattern.segments
        elif isinstance(pattern, str):
            segments = tuple(s for s in pattern.split("/") if s)
        else:
            segments = tuple(pattern)
        object.__setattr__(self, "segments", segments)

    def __str__(self) -> str:
        return "/".join(self.segments)

    def matches(self, path: ResourcePath | str) -> bool:
        path = ResourcePath(path)
        return self._match(self.segments, path.segments)

    @staticmethod
    def _match(pattern: tuple[str, ...], path: tuple[str, ...]) -> bool:
        if not pattern:
            return not path
        head, rest = pattern[0], pattern[1:]
        if head == "**":
            # '**' absorbs zero or more leading path segments.
            for skip in range(len(path) + 1):
                if ResourcePattern._match(rest, path[skip:]):
                    return True
            return False
        if not path:
            return False
        if not fnmatchcase(path[0], head):
            return False
        return ResourcePattern._match(rest, path[1:])

    @property
    def specificity(self) -> int:
        """Higher = more specific; used by most-specific-wins resolution.

        Literal segments count 3, single-segment globs 2, ``**`` 1, so
        ``a/b/c`` beats ``a/b/*`` beats ``a/**``.
        """
        score = 0
        for segment in self.segments:
            if segment == "**":
                score += 1
            elif is_glob(segment):
                score += 2
            else:
                score += 3
        return score


class ProtectionObject:
    """A named object in the protection hierarchy with optional payload.

    The policy framework only needs paths; concrete stores (XML database,
    UDDI registry, relational catalog) attach their native object as
    ``payload`` so audit records can point back at the real thing.
    """

    def __init__(self, path: ResourcePath | str,
                 payload: object = None) -> None:
        self.path = ResourcePath(path)
        self.payload = payload

    def __repr__(self) -> str:
        return f"ProtectionObject({str(self.path)!r})"


class ObjectHierarchy:
    """An explicit tree of protection objects.

    Most callers only need paths/patterns, but experiments about propagation
    (a policy on a node applies to its subtree) need enumeration: given a
    node, list its descendants.  The hierarchy is built incrementally with
    :meth:`add`; adding a path creates its ancestors implicitly.
    """

    def __init__(self) -> None:
        self._children: dict[ResourcePath, set[str]] = {ResourcePath(""): set()}
        self._objects: dict[ResourcePath, ProtectionObject] = {}

    def add(self, path: ResourcePath | str,
            payload: object = None) -> ProtectionObject:
        path = ResourcePath(path)
        for ancestor in list(path.ancestors())[::-1]:
            self._children.setdefault(ancestor, set())
            if len(ancestor) > 0:
                self._children[ancestor.parent].add(ancestor.name)
        obj = ProtectionObject(path, payload)
        self._objects[path] = obj
        return obj

    def __contains__(self, path: ResourcePath | str) -> bool:
        return ResourcePath(path) in self._children

    def get(self, path: ResourcePath | str) -> ProtectionObject | None:
        return self._objects.get(ResourcePath(path))

    def children(self, path: ResourcePath | str) -> list[ResourcePath]:
        path = ResourcePath(path)
        return sorted((path.child(name) for name in
                       self._children.get(path, ())),
                      key=lambda p: p.segments)

    def descendants(self, path: ResourcePath | str,
                    include_self: bool = True) -> Iterator[ResourcePath]:
        """Depth-first enumeration of the subtree rooted at *path*."""
        path = ResourcePath(path)
        if include_self:
            yield path
        for child in self.children(path):
            yield from self.descendants(child, include_self=True)

    def paths(self) -> Iterator[ResourcePath]:
        return iter(self._children)

"""A small XML parser.

Supported subset (documented per DESIGN.md §6): elements, attributes with
single- or double-quoted values, text content, self-closing tags,
comments, XML declarations, the five predefined entities and numeric
character references.  Not supported: namespaces-as-semantics (colons
are allowed in names but not interpreted), CDATA, processing
instructions, DTD internal subsets.

The parser is one compiled tokenizer and one loop.  ``_TOKEN`` matches a
text run, a comment, a close tag, an open tag with its attribute list,
or a lone ``<`` (malformed markup); :func:`parse_tree` keeps an explicit
stack of open elements and builds each node at its close tag, so depth
is bounded by memory, not the recursion limit.  The node constructor is
a parameter: :func:`parse` builds mutable
:class:`~repro.xmldb.model.Element` trees and
:func:`repro.snap.frozen.parse_frozen` builds frozen ones from the same
tokens.  Every malformed input raises :class:`ParseError` with a
character offset.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.core.errors import ParseError
from repro.xmldb.model import Document, Element

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

# ``[\w.:-]`` is exactly ``isalnum() or in "_-.:"`` and ``\s`` exactly
# ``isspace()`` for str patterns.  The lookahead keeps a tag from giving
# characters back to an attribute (``<ab="1">`` is malformed).
_NAME = r"[\w.:-]+(?![\w.:-])"
_VALUE = r"""(?:"[^"]*"|'[^']*')"""
_ATTRIBUTE = re.compile(rf"""({_NAME})\s*=\s*(?:"([^"]*)"|'([^']*)')""")
_TOKEN = re.compile(rf"""
    ([^<]+)                                        # 1: text run
  | <!--.*?-->                                     # comment
  | </({_NAME})\s*>                                # 2: close tag
  | <({_NAME})((?:\s*{_NAME}\s*=\s*{_VALUE})*)\s*   # 3: tag, 4: attributes
      (/)?>                                        # 5: self-closing
  | (<)                                            # 6: malformed
""", re.S | re.X)
_PROLOG = re.compile(r"\s*(?:<\?.*?\?>\s*)?(?:<!--.*?-->\s*)*", re.S)
_TRAILER = re.compile(r"\s*(?:<!--.*?-->\s*)*", re.S)
_REFERENCE = re.compile(
    r"&(?:#[xX]([0-9a-fA-F]+)|#([0-9]+)|(lt|gt|amp|quot|apos));|&")


def _decode_entities(text: str, offset: int) -> str:
    if "&" not in text:
        return text

    def replace(match: re.Match) -> str:
        hex_digits, digits, name = match.groups()
        if name is not None:
            return _ENTITIES[name]
        if hex_digits is None and digits is None:
            raise ParseError("malformed or unknown entity reference",
                             offset + match.start())
        try:
            return chr(int(digits) if hex_digits is None
                       else int(hex_digits, 16))
        except (ValueError, OverflowError):
            raise ParseError("character reference out of range",
                             offset + match.start()) from None

    return _REFERENCE.sub(replace, text)


def _attributes(text: str, offset: int) -> dict[str, str]:
    """The attribute list of an open tag *_TOKEN* already validated."""
    attributes: dict[str, str] = {}
    for match in _ATTRIBUTE.finditer(text):
        name, double = match.group(1, 2)
        if name in attributes:
            raise ParseError(f"duplicate attribute {name!r}",
                             offset + match.start())
        group = 2 if double is not None else 3
        attributes[name] = _decode_entities(match.group(group),
                                            offset + match.start(group))
    return attributes


def _malformed(text: str, pos: int) -> ParseError:
    if text.startswith("<!--", pos):
        return ParseError("unterminated comment", pos)
    if text.startswith("</", pos):
        return ParseError("malformed closing tag", pos)
    return ParseError("malformed tag", pos)


def parse_tree(text: str, element: Callable):
    """Parse *text* into a tree of ``element(tag, attributes, children)``
    nodes and return the root.  *attributes* is a fresh dict or ``None``;
    *children* a tuple of nodes and stripped, entity-decoded text runs
    (whitespace-only runs are formatting and dropped).

    Raises :class:`ParseError` with a character offset on malformed input.
    """
    pos = _PROLOG.match(text).end()
    if not text.startswith("<", pos):
        raise ParseError("document must start with an element", pos)
    # Open elements as (tag, attributes, children); the bottom frame
    # collects the root.
    top: list = []
    stack: list[tuple] = [("", None, top)]
    children = top
    for match in _TOKEN.finditer(text, pos):
        kind = match.lastindex
        if kind == 1:
            run = _decode_entities(match.group(1), match.start()).strip()
            if run:
                children.append(run)
        elif kind == 2:
            tag, attributes, body = stack.pop()
            if match.group(2) != tag:
                if not stack:       # the bottom frame: no element is open
                    raise ParseError("document must start with an element",
                                     match.start())
                raise ParseError(f"mismatched closing tag "
                                 f"</{match.group(2)}> for <{tag}>",
                                 match.start(2))
            children = stack[-1][2]
            children.append(element(tag, attributes, tuple(body)))
        elif kind == 6:
            raise _malformed(text, match.start())
        elif kind is not None:      # an open tag; kind 5 closes it too
            listed = match.group(4)
            attributes = (_attributes(listed, match.start(4)) if listed
                          else None)
            if kind == 5:
                children.append(element(match.group(3), attributes, ()))
            else:
                children = []
                stack.append((match.group(3), attributes, children))
        if top:
            break
    else:
        raise ParseError(f"unexpected end inside <{stack[-1][0]}>",
                         len(text))
    pos = _TRAILER.match(text, match.end()).end()
    if pos != len(text):
        raise ParseError("trailing content after document element", pos)
    return top[0]


def parse(text: str, name: str = "") -> Document:
    """Parse *text* into a :class:`Document`.

    Raises :class:`~repro.core.errors.ParseError` with a character offset
    on malformed input.
    """
    return Document(parse_tree(text, Element), name)


def parse_element(text: str) -> Element:
    """Parse a single element (fragment) without document bookkeeping."""
    return parse_tree(text, Element)

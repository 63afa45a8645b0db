"""The recursive-descent XML parser the compiled tokenizer replaced,
kept verbatim as the semantics oracle for ``test_parser_differential``.

Only usable on shallow documents (it recurses twice per nesting level),
and malformed numeric character references escape it as ``ValueError``
rather than :class:`ParseError` — the two known deltas.
"""

from __future__ import annotations

from repro.core.errors import ParseError
from repro.xmldb.model import Document, Element

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if not self.eof() else ""

    def advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def starts_with(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def skip_whitespace(self) -> None:
        while not self.eof() and self.peek().isspace():
            self.pos += 1

    def read_name(self) -> str:
        start = self.pos
        while not self.eof():
            ch = self.peek()
            if ch.isalnum() or ch in "_-.:":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise ParseError("expected a name", start)
        return self.text[start:self.pos]

    def read_until(self, stop: str) -> str:
        end = self.text.find(stop, self.pos)
        if end < 0:
            raise ParseError(f"unterminated, expected {stop!r}", self.pos)
        chunk = self.text[self.pos:end]
        self.pos = end + len(stop)
        return chunk


def _decode_entities(text: str, offset: int) -> str:
    if "&" not in text:
        return text
    out: list[str] = []
    index = 0
    while index < len(text):
        ch = text[index]
        if ch != "&":
            out.append(ch)
            index += 1
            continue
        end = text.find(";", index)
        if end < 0:
            raise ParseError("unterminated entity reference", offset + index)
        name = text[index + 1:end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise ParseError(f"unknown entity &{name};", offset + index)
        index = end + 1
    return "".join(out)


def _parse_attributes(scanner: _Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        ch = scanner.peek()
        if ch in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        scanner.expect("=")
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise ParseError("attribute value must be quoted", scanner.pos)
        scanner.advance()
        start = scanner.pos
        value = scanner.read_until(quote)
        if name in attributes:
            raise ParseError(f"duplicate attribute {name!r}", start)
        attributes[name] = _decode_entities(value, start)


def _parse_element(scanner: _Scanner) -> Element:
    scanner.expect("<")
    tag = scanner.read_name()
    attributes = _parse_attributes(scanner)
    scanner.skip_whitespace()
    node = Element(tag, attributes)
    if scanner.starts_with("/>"):
        scanner.advance(2)
        return node
    scanner.expect(">")
    _parse_content(scanner, node)
    scanner.expect("</")
    closing = scanner.read_name()
    if closing != tag:
        raise ParseError(
            f"mismatched closing tag </{closing}> for <{tag}>", scanner.pos)
    scanner.skip_whitespace()
    scanner.expect(">")
    return node


def _parse_content(scanner: _Scanner, parent: Element) -> None:
    while True:
        if scanner.eof():
            raise ParseError(f"unexpected end inside <{parent.tag}>",
                             scanner.pos)
        if scanner.starts_with("</"):
            return
        if scanner.starts_with("<!--"):
            scanner.advance(4)
            scanner.read_until("-->")
            continue
        if scanner.peek() == "<":
            parent.append(_parse_element(scanner))
            continue
        start = scanner.pos
        end = scanner.text.find("<", start)
        if end < 0:
            raise ParseError(f"unexpected end inside <{parent.tag}>", start)
        raw = scanner.text[start:end]
        scanner.pos = end
        text = _decode_entities(raw, start)
        if text.strip():
            # Whitespace-only runs are formatting, not content.
            parent.append(text.strip())


def parse(text: str, name: str = "") -> Document:
    """Parse *text* into a :class:`Document`.

    Raises :class:`~repro.core.errors.ParseError` with a character offset
    on malformed input.
    """
    scanner = _Scanner(text)
    scanner.skip_whitespace()
    if scanner.starts_with("<?"):
        scanner.advance(2)
        scanner.read_until("?>")
        scanner.skip_whitespace()
    while scanner.starts_with("<!--"):
        scanner.advance(4)
        scanner.read_until("-->")
        scanner.skip_whitespace()
    if not scanner.starts_with("<"):
        raise ParseError("document must start with an element", scanner.pos)
    root = _parse_element(scanner)
    scanner.skip_whitespace()
    while scanner.starts_with("<!--"):
        scanner.advance(4)
        scanner.read_until("-->")
        scanner.skip_whitespace()
    if not scanner.eof():
        raise ParseError("trailing content after document element",
                         scanner.pos)
    return Document(root, name)


def parse_element(text: str) -> Element:
    """Parse a single element (fragment) without document bookkeeping."""
    return parse(text).root

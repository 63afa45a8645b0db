"""XPath-lite: the query language of the XML database.

Supported grammar (a practical XPath 1.0 subset)::

    path      := '/'? step ('/' step)* | '//' step ('/' step)*
    step      := axis? nodetest predicate*
    axis      := 'descendant::' | (empty = child) | '//' shorthand
    nodetest  := NAME | '*' | '@NAME' | '@*' | 'text()'
    predicate := '[' INTEGER ']'                 positional (1-based)
               | '[' relpath ']'                 existence
               | '[' relpath '=' STRING ']'      value comparison
               | '[' '@NAME' ('=' STRING)? ']'   attribute tests

Examples::

    /hospital/record
    //record[@id='r1']/diagnosis
    /hospital/record[diagnosis='flu']/name
    //record[2]
    //name/text()

Evaluation returns a list of :class:`Element`, attribute values (str) or
text values (str) depending on the final step.  The engine is deliberately
simple — a reference naive evaluator lives in the tests to cross-check it
property-style.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ParseError, QueryError
from repro.core.cache import MISS, LRUCache
from repro.xmldb.model import Document, Element

#: Compiled expressions keyed by (stripped) source text.  XPath values
#: are immutable, so one compiled object is safely shared by every
#: caller; parse errors are not cached.
_COMPILE_CACHE = LRUCache(maxsize=4096)


@dataclass(frozen=True)
class Predicate:
    """One ``[...]`` filter on a step."""

    kind: str                 # 'index' | 'exists' | 'equals' | 'attr-exists' | 'attr-equals'
    path: tuple[str, ...] = ()
    attribute: str = ""
    value: str = ""
    index: int = 0


@dataclass(frozen=True)
class Step:
    """One location step."""

    axis: str                 # 'child' | 'descendant'
    test: str                 # tag name, '*', '@name', '@*', 'text()'
    predicates: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class XPath:
    """A compiled path expression."""

    steps: tuple[Step, ...]
    absolute: bool
    source: str

    def __str__(self) -> str:
        return self.source


class _Tokenizer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, count: int = 1) -> str:
        return self.text[self.pos:self.pos + count]

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise ParseError(f"expected {literal!r} in XPath", self.pos)

    def read_name(self) -> str:
        start = self.pos
        while not self.eof():
            ch = self.text[self.pos]
            if ch.isalnum() or ch in "_-.":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise ParseError("expected a name in XPath", start)
        return self.text[start:self.pos]

    def read_string(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):
            raise ParseError("expected a quoted string in XPath", self.pos)
        self.pos += 1
        end = self.text.find(quote, self.pos)
        if end < 0:
            raise ParseError("unterminated string in XPath", self.pos)
        value = self.text[self.pos:end]
        self.pos = end + 1
        return value


def _parse_nodetest(tok: _Tokenizer) -> str:
    if tok.take("@"):
        if tok.take("*"):
            return "@*"
        return "@" + tok.read_name()
    if tok.take("*"):
        return "*"
    name = tok.read_name()
    if name == "text" and tok.take("()"):
        return "text()"
    return name


def _parse_predicate(tok: _Tokenizer) -> Predicate:
    tok.expect("[")
    # positional predicate
    start = tok.pos
    if not tok.eof() and tok.peek().isdigit():
        digits = ""
        while not tok.eof() and tok.peek().isdigit():
            digits += tok.text[tok.pos]
            tok.pos += 1
        tok.expect("]")
        index = int(digits)
        if index < 1:
            raise ParseError("positional predicates are 1-based", start)
        return Predicate("index", index=index)
    if tok.take("@"):
        attribute = tok.read_name()
        if tok.take("="):
            value = tok.read_string()
            tok.expect("]")
            return Predicate("attr-equals", attribute=attribute, value=value)
        tok.expect("]")
        return Predicate("attr-exists", attribute=attribute)
    # relative path predicate (existence or equality)
    names = [tok.read_name()]
    while tok.take("/"):
        names.append(tok.read_name())
    if tok.take("="):
        value = tok.read_string()
        tok.expect("]")
        return Predicate("equals", path=tuple(names), value=value)
    tok.expect("]")
    return Predicate("exists", path=tuple(names))


def compile_xpath(text: str, use_cache: bool = True) -> XPath:
    """Compile an XPath-lite expression; raises ParseError on bad syntax.

    Results are memoized in a process-wide LRU keyed by source text, so
    repeated evaluation of the same expression string (the common shape:
    policies re-checked per request) skips tokenization entirely.
    """
    source = text.strip()
    if use_cache:
        cached = _COMPILE_CACHE.get(source)
        if cached is not MISS:
            return cached
    compiled = _compile_uncached(source)
    if use_cache:
        _COMPILE_CACHE.put(source, compiled)
    return compiled


def compile_cache_stats() -> dict[str, int | float]:
    """Hit/miss counters of the compile cache (for benchmarks)."""
    return _COMPILE_CACHE.stats.snapshot()


def _compile_uncached(source: str) -> XPath:
    tok = _Tokenizer(source)
    steps: list[Step] = []
    absolute = False
    axis = "child"
    if tok.take("//"):
        absolute = True
        axis = "descendant"
    elif tok.take("/"):
        absolute = True
    while True:
        test = _parse_nodetest(tok)
        predicates: list[Predicate] = []
        while tok.peek() == "[":
            predicates.append(_parse_predicate(tok))
        steps.append(Step(axis, test, tuple(predicates)))
        if tok.take("//"):
            axis = "descendant"
            continue
        if tok.take("/"):
            axis = "child"
            continue
        break
    if not tok.eof():
        raise ParseError("trailing characters in XPath", tok.pos)
    if not steps:
        raise ParseError("empty XPath", 0)
    for step in steps[:-1]:
        if step.test.startswith("@") or step.test == "text()":
            raise ParseError(
                "attribute/text() steps are only allowed last", 0)
    return XPath(tuple(steps), absolute, source)


# -- evaluation -----------------------------------------------------------


def _candidates(node: Element, step: Step) -> list[Element]:
    if step.axis == "descendant":
        pool = [e for e in node.iter() if e is not node]
    else:
        pool = node.element_children
    if step.test == "*":
        return pool
    return [e for e in pool if e.tag == step.test]


def _relative_values(node: Element, path: tuple[str, ...]) -> list[str]:
    """Text values of elements reached by a chain of child steps."""
    frontier = [node]
    for name in path:
        next_frontier: list[Element] = []
        for element in frontier:
            next_frontier.extend(element.find_all(name))
        frontier = next_frontier
    return [e.text for e in frontier]


def _passes(node: Element, predicate: Predicate) -> bool:
    if predicate.kind == "attr-exists":
        return predicate.attribute in node.attributes
    if predicate.kind == "attr-equals":
        return node.attributes.get(predicate.attribute) == predicate.value
    if predicate.kind == "exists":
        frontier = [node]
        for name in predicate.path:
            frontier = [child for e in frontier
                        for child in e.find_all(name)]
        return bool(frontier)
    if predicate.kind == "equals":
        return predicate.value in _relative_values(node, predicate.path)
    raise QueryError(f"unknown predicate kind {predicate.kind!r}")


def _apply_step(nodes: list[Element], step: Step) -> list[Element]:
    result: list[Element] = []
    seen: set[int] = set()
    for node in nodes:
        matches = _candidates(node, step)
        for predicate in step.predicates:
            if predicate.kind == "index":
                matches = ([matches[predicate.index - 1]]
                           if predicate.index <= len(matches) else [])
            else:
                matches = [m for m in matches if _passes(m, predicate)]
        for match in matches:
            if id(match) not in seen:
                seen.add(id(match))
                result.append(match)
    return result


def evaluate(path: XPath | str,
             context: Document | Element) -> list[Element | str]:
    """Evaluate *path* against a document or element context.

    For absolute paths against a Document, the first step must match the
    root element (as in XPath, where '/' selects the document node).
    """
    if isinstance(path, str):
        path = compile_xpath(path)
    if isinstance(context, Document):
        root = context.root
    else:
        root = context
    steps = list(path.steps)
    first = steps[0]
    current: list[Element]
    if path.absolute and first.axis == "child":
        # '/tag' matches the root element itself.
        matches = [root] if first.test in (root.tag, "*") else []
        for predicate in first.predicates:
            if predicate.kind == "index":
                matches = matches if predicate.index == 1 else []
            else:
                matches = [m for m in matches if _passes(m, predicate)]
        current = matches
        steps = steps[1:]
    else:
        current = [root]
        if not path.absolute:
            # relative: first step starts from the context element
            pass
    for index, step in enumerate(steps):
        last = index == len(steps) - 1
        if last and (step.test.startswith("@") or step.test == "text()"):
            values: list[Element | str] = []
            if step.test == "text()":
                for node in current:
                    text = node.text
                    if text:
                        values.append(text)
                return values
            if step.test == "@*":
                for node in current:
                    values.extend(v for _, v in sorted(node.attributes.items()))
                return values
            attr = step.test[1:]
            for node in current:
                if attr in node.attributes:
                    values.append(node.attributes[attr])
            return values
        current = _apply_step(current, step)
    return list(current)


def select_elements(path: XPath | str,
                    context: Document | Element) -> list[Element]:
    """Evaluate, requiring an element result set."""
    results = evaluate(path, context)
    if any(not isinstance(r, Element) for r in results):
        raise QueryError(
            f"XPath {path} selects values, not elements")
    return results  # type: ignore[return-value]

"""Serializer scaling: linear cost, unbounded depth, frozen parity.

Regression tests for the writer-style (list-append + single join)
emission: the old f-string concatenation recursed once per level
(RecursionError past ~1000) and re-copied each element's bytes once per
ancestor (O(n·d) on deep chains).
"""

import sys
import time

from repro.snap.frozen import freeze_element, parse_frozen
from repro.snap.intern import serialize_pieces
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb.model import Element
from repro.xmldb.parser import parse
from repro.xmldb.serializer import (
    escape_attribute,
    escape_text,
    serialize,
    serialize_element,
)


def reference_serialize(node) -> str:
    """The old recursive formulation, kept tiny, as the semantics oracle
    (only usable on shallow documents)."""
    attrs = "".join(f' {name}="{escape_attribute(value)}"'
                    for name, value in sorted(node.attributes.items()))
    if not node.children:
        return f"<{node.tag}{attrs}/>"
    body = "".join(child if False else (escape_text(child)
                   if isinstance(child, str)
                   else reference_serialize(child))
                   for child in node.children)
    return f"<{node.tag}{attrs}>{body}</{node.tag}>"


def chain(depth: int) -> Element:
    root = Element("n0")
    node = root
    for index in range(1, depth):
        child = Element(f"n{index}", {"i": str(index)})
        node.append(child)
        node = child
    node.append("leaf")
    return root


def chain_text(depth: int) -> str:
    """``serialize_element(chain(depth))`` without building the tree
    (appending under a deep chain walks to its root each time)."""
    opening = "".join(f'<n{index} i="{index}">' if index else "<n0>"
                      for index in range(depth))
    closing = "".join(f"</n{index}>" for index in reversed(range(depth)))
    return f"{opening}leaf{closing}"


def bushy(width: int) -> Element:
    root = Element("doc")
    for index in range(width):
        child = Element("item", {"id": str(index)})
        child.append(f"text&{index}")
        root.append(child)
    return root


class TestSemantics:
    def test_matches_the_recursive_reference_on_shallow_documents(self):
        for node in (bushy(50), chain(40),
                     parse("<a x=\"1\"><b>t&amp;t</b><c/>tail</a>").root):
            assert serialize_element(node) == reference_serialize(node)

    def test_frozen_and_mutable_trees_serialize_identically(self):
        for node in (bushy(30), chain(30)):
            assert serialize_element(freeze_element(node)) \
                == serialize_element(node)


class TestScaling:
    def test_depth_far_beyond_the_recursion_limit(self):
        depth = sys.getrecursionlimit() * 3
        text = serialize_element(chain(depth))
        assert text.startswith("<n0><n1 i=\"1\">")
        assert text.endswith(f"</n1></n0>")
        assert text.count("</") == depth

    def test_deep_chain_cost_is_linear_not_quadratic(self):
        """4x the depth must cost well under 16x the time (with slack:
        under 8x).  The quadratic emission failed this by an order of
        magnitude."""
        def measure(depth: int) -> float:
            node = chain(depth)
            serialize_element(node)  # warm-up
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                serialize_element(node)
                best = min(best, time.perf_counter() - start)
            return best
        small, large = measure(1500), measure(6000)
        assert large < small * 8, (small, large)

    def test_wide_document_cost_is_linear(self):
        def measure(width: int) -> float:
            node = bushy(width)
            serialize_element(node)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                serialize_element(node)
                best = min(best, time.perf_counter() - start)
            return best
        small, large = measure(2000), measure(8000)
        assert large < small * 8, (small, large)

    def test_deep_roundtrip_through_the_parser(self):
        # Modest depth, built through chain(); the parser's own depth
        # test follows.
        node = chain(300)
        assert serialize_element(
            parse(serialize_element(node)).root) == serialize_element(node)

    def test_chain_text_is_the_canonical_chain(self):
        assert chain_text(40) == serialize_element(chain(40))

    def test_parser_and_store_take_any_depth(self):
        text = chain_text(5000)
        assert serialize(parse(text)) == text
        assert serialize(parse_frozen(text)) == text
        store = SnapshotXmlDatabase()
        store.create_collection("c")
        store.insert("c", "deep", text)
        snapshot = store.freeze()
        assert serialize(snapshot.document("c", "deep")) == text
        assert serialize(snapshot.thawed("c", "deep")) == text
        root = snapshot.document("c", "deep").root
        for _ in range(2):          # cold, then a warm pool hit
            assert snapshot.serialize("c", "deep") == text
            assert "".join(serialize_pieces(root, store.pool)) == text

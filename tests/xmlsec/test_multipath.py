"""The simultaneous matcher must agree with the classic engine.

``simultaneous_select`` evaluates many XPath-lite expressions in one DOM
traversal; its contract is the same *element set* as per-path
``select_elements``, returned in document (pre-order) position.  The
classic engine's own sequence order is stage-wise and can deviate from
document order on multi-step paths, so the comparisons below are
set-based plus an explicit document-order check.  Hand-picked corner
cases cover the root-matching and descendant-axis subtleties; a
hypothesis property sweeps random documents against a pool of path
shapes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmldb.model import Document, Element, element
from repro.xmldb.xpath import compile_xpath, select_elements
from repro.xmlsec.multipath import simultaneous_select, supports_path

tag_strategy = st.sampled_from(["a", "b", "c", "item"])


@st.composite
def xml_tree(draw, depth=3):
    node = Element(draw(tag_strategy),
                   draw(st.dictionaries(st.sampled_from(["id", "k"]),
                                        st.sampled_from(["1", "2", "x"]),
                                        max_size=2)))
    if draw(st.booleans()):
        node.append(draw(st.sampled_from(["t", "u", "flu"])))
    if depth > 0:
        for child in draw(st.lists(xml_tree(depth=depth - 1),
                                   max_size=3)):
            node.append(child)
    return node


#: Path shapes exercising every axis/predicate combination the matcher
#: supports: absolute/relative, child/descendant first steps, wildcards,
#: attribute and relative-path predicates, mixed-axis chains.
PATH_POOL = [
    "/a", "/a/b", "/a/*", "/b/a",
    "//a", "//b", "//*", "//a/b", "//a//b", "//*/a",
    "/a//b", "/a//*", "//a/*/c",
    "a", "a/b", "*/a", "b//c",
    "//a[@id='1']", "//*[@k]", "/a[@id='1']/b",
    "//a[b]", "//a[b='t']", "//c[@id='2']//a",
]


def assert_same_selection(got, expected, root, context_text=""):
    """Set equality with the classic engine + document-order result."""
    assert {id(n) for n in got} == {id(n) for n in expected}, context_text
    assert len(got) == len(expected), context_text
    positions = {id(n): i for i, n in enumerate(root.iter())}
    order = [positions[id(n)] for n in got]
    assert order == sorted(order), context_text


def sample_doc():
    return Document(element(
        "a", None, {"id": "1"},
        element("b", "t", {"k": "x"},
                element("a", None, {"id": "2"}),
                element("c", "u")),
        element("b", "flu"),
        element("a", None, {"id": "1"},
                element("b", "t"))))


class TestSupportsPath:
    def test_rejects_positional_predicates(self):
        assert not supports_path(compile_xpath("//a[2]"))
        assert not supports_path(compile_xpath("/a/b[1]/c"))

    def test_rejects_value_selecting_final_steps(self):
        assert not supports_path(compile_xpath("//a/@id"))
        assert not supports_path(compile_xpath("//a/text()"))
        assert not supports_path(compile_xpath("//a/@*"))

    def test_accepts_element_paths(self):
        for text in PATH_POOL:
            assert supports_path(compile_xpath(text)), text

    def test_simultaneous_select_raises_on_unsupported(self):
        with pytest.raises(ValueError):
            simultaneous_select(["//a[2]"], sample_doc())


class TestAgainstClassicEngine:
    def test_pool_on_sample_document(self):
        doc = sample_doc()
        combined = simultaneous_select(PATH_POOL, doc)
        for text, got in zip(PATH_POOL, combined):
            expected = select_elements(text, doc)
            assert_same_selection(got, expected, doc.root, text)

    def test_root_only_matches_absolute_child_paths(self):
        doc = Document(element("a", None, None, element("a")))
        by_path = dict(zip(
            ["/a", "//a", "a"],
            simultaneous_select(["/a", "//a", "a"], doc)))
        assert doc.root in by_path["/a"]
        assert doc.root not in by_path["//a"]
        assert doc.root not in by_path["a"]

    def test_element_context(self):
        doc = sample_doc()
        context = doc.root.element_children[0]   # first <b>
        for text in ["a", "//a", "c", "*"]:
            got = simultaneous_select([text], context)[0]
            assert_same_selection(got, select_elements(text, context),
                                  context, text)

    def test_nested_descendant_chain(self):
        # //a//a: an <a> nested under another matched <a> must match too
        # (descendant states persist after matching).
        doc = Document(element(
            "r", None, None,
            element("a", None, None,
                    element("x", None, None,
                            element("a", None, None,
                                    element("a"))))))
        got = simultaneous_select(["//a//a"], doc)[0]
        assert_same_selection(got, select_elements("//a//a", doc),
                              doc.root)
        assert len(got) == 2

    @given(xml_tree(), st.lists(st.sampled_from(PATH_POOL),
                                min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_property_identity_with_select_elements(self, root, paths):
        doc = Document(root)
        combined = simultaneous_select(paths, doc)
        for text, got in zip(paths, combined):
            expected = select_elements(text, doc)
            assert_same_selection(got, expected, doc.root, text)

    @given(xml_tree(), st.lists(st.sampled_from(PATH_POOL),
                                min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_property_identity_from_element_context(self, root, paths):
        relative = [p for p in paths if not p.startswith("/")]
        if not relative:
            relative = ["a"]
        combined = simultaneous_select(relative, root)
        for text, got in zip(relative, combined):
            expected = select_elements(text, root)
            assert_same_selection(got, expected, root, text)

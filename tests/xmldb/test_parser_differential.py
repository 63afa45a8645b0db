"""Differential oracle: the compiled tokenizer against the recursive-
descent parser it replaced (``reference_parser``).

Generated documents cover what the parser's language has — an optional
declaration, comments before, inside and after the root, both quote
styles, entity and character references in text and attributes,
whitespace runs, attributes with no separating whitespace — and every
document is also tried with one character deleted, duplicated, or one
of ``<>&"'=/;`` inserted.  The new parser must accept exactly when the
reference does, build a structurally equal tree, and its frozen
constructor must serialize like ``freeze_document(parse(t))``.  The
three known deltas: a malformed numeric reference escaped the reference
as ``ValueError`` (now ``ParseError``); depth was capped by its
recursion (``test_serializer_scaling`` covers depth); and numeric
references the reference handed to ``int()`` are now held to the XML
grammar, so forms ``int()`` tolerated (``&#x0x41;``, ``&# 65;``) are
``ParseError`` — pinned below, since the generator never writes them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ParseError
from repro.snap.frozen import freeze_document, parse_frozen
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.xmldb import model
from repro.xmldb.parser import parse
from repro.xmldb.serializer import serialize

from tests.xmldb import reference_parser

NAMES = st.sampled_from(["a", "b", "x.y", "p:q", "n-1", "_z", "é"])
#: Attribute names: drawn with repeats, so some lists hold duplicates.
KEYS = st.sampled_from(["k", "id", "x.y", "p:q", "n-1", "_z", "é", "v2"])
SPACE = st.sampled_from(["", " ", "\n", "\t  ", "\r\n "])
REFERENCES = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;",
              "&#x42;", "&#X43;", "&#0;", "&#32;"]
TEXT = st.lists(st.sampled_from(["x", "hello", "a b", " ", "\n", ">", "'",
                                 '"', "=", "/", *REFERENCES]),
                max_size=4).map("".join)
COMMENT = st.sampled_from(["", " note ", "-", "a<b>&", "x--y"]).map(
    lambda body: f"<!--{body}-->")
DECLARATION = st.sampled_from(
    ["", "<?xml version='1.0'?>", '<?xml version="1.0" encoding="utf-8"?>'])


@st.composite
def attribute_lists(draw) -> str:
    parts = []
    for index, name in enumerate(draw(st.lists(KEYS, max_size=3))):
        quote = draw(st.sampled_from(['"', "'"]))
        value = draw(TEXT).replace(quote, "").replace("<", "")
        separator = draw(st.sampled_from([" ", "\n"] if index == 0
                                         else ["", " ", "\t"]))
        parts.append(f"{separator}{name}{draw(SPACE)}={draw(SPACE)}"
                     f"{quote}{value}{quote}")
    return "".join(parts)


@st.composite
def elements(draw, depth: int = 0) -> str:
    tag = draw(NAMES)
    opening = f"<{tag}{draw(attribute_lists())}{draw(SPACE)}"
    if draw(st.booleans()):
        return f"{opening}/>"
    content = [draw(st.one_of(TEXT, COMMENT, elements(depth + 1)))
               for _ in range(draw(st.integers(0, 3 if depth < 3 else 1)))]
    return f"{opening}>{''.join(content)}</{tag}{draw(SPACE)}>"


@st.composite
def documents(draw) -> str:
    def comments() -> str:
        return "".join(f"{comment}{draw(SPACE)}" for comment in
                       draw(st.lists(COMMENT, max_size=2)))
    return (f"{draw(SPACE)}{draw(DECLARATION)}{draw(SPACE)}{comments()}"
            f"{draw(elements())}{draw(SPACE)}{comments()}")


#: Where markup is decided; half the mutations land on one of these.
MARKUP = set("<>&\"'=/;# \t\n")


@st.composite
def mutated(draw) -> str:
    text = draw(documents())
    at = draw(st.integers(0, len(text)))
    marks = [index for index, char in enumerate(text) if char in MARKUP]
    if marks and draw(st.booleans()):
        at = draw(st.sampled_from(marks))
    kind = draw(st.sampled_from(["delete", "duplicate", "insert"]))
    if kind == "insert" or at == len(text):
        return text[:at] + draw(st.sampled_from(list("<>&\"'=/;"))) + text[at:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    return text[:at + 1] + text[at:]


class TestAgainstTheReference:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(documents(), mutated()))
    def test_accepts_exactly_what_the_reference_accepts(self, text):
        try:
            expected = reference_parser.parse(text)
        except ParseError:
            expected = None
        except ValueError:      # malformed numeric character reference
            with pytest.raises(ParseError):
                parse(text)
            with pytest.raises(ParseError):
                parse_frozen(text)
            return
        if expected is None:
            with pytest.raises(ParseError):
                parse(text)
            with pytest.raises(ParseError):
                parse_frozen(text)
            return
        document = parse(text)
        assert document.root.structurally_equal(expected.root)
        assert serialize(parse_frozen(text)) \
            == serialize(freeze_document(parse(text)))


class TestNumericReferenceGrammar:
    @pytest.mark.parametrize("reference", [
        "&#x0x41;", "&#X0X41;", "&# 65;", "&#+65;", "&#6_5;", "&#x 41;",
        "&#\u0666\u0665;",
    ])
    @pytest.mark.parametrize("template", ["<a>{}</a>", '<a v="{}"/>'])
    def test_forms_int_tolerated_are_parse_errors(self, reference,
                                                  template):
        text = template.format(reference)
        assert "A" in serialize(reference_parser.parse(text))
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert caught.value.position == text.index("&")
        with pytest.raises(ParseError):
            parse_frozen(text)


class TestStoreIngest:
    def test_insert_of_text_builds_no_mutable_element(self, monkeypatch):
        built = []
        init = model.Element.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0] if args else kwargs.get("tag"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(model.Element, "__init__", counting)
        store = SnapshotXmlDatabase()
        store.create_collection("c")
        store.insert("c", "d", '<a k="v"><b>one</b><c/>two</a>')
        store.replace("c", "d", "<a><b>three</b></a>")
        assert built == []
        assert serialize(store.freeze().document("c", "d")) \
            == "<a><b>three</b></a>"

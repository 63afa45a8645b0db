"""Tests for the XML parser."""

import pytest

from repro.core.errors import ParseError
from repro.xmldb.parser import parse, parse_element
from repro.xmldb.serializer import serialize


class TestBasics:
    def test_simple_document(self):
        doc = parse("<a><b>text</b></a>")
        assert doc.root.tag == "a"
        assert doc.root.find("b").text == "text"

    def test_attributes_both_quote_styles(self):
        root = parse_element("""<x a="1" b='2'/>""")
        assert root.attributes == {"a": "1", "b": "2"}

    def test_self_closing(self):
        root = parse_element("<a><b/><c/></a>")
        assert [c.tag for c in root.element_children] == ["b", "c"]

    def test_nested_same_tags(self):
        root = parse_element("<a><a><a/></a></a>")
        assert root.size() == 3

    def test_whitespace_only_text_dropped(self):
        root = parse_element("<a>\n  <b/>\n</a>")
        assert root.text == ""

    def test_significant_text_trimmed(self):
        root = parse_element("<a>  hello  </a>")
        assert root.text == "hello"

    def test_xml_declaration_skipped(self):
        doc = parse("<?xml version='1.0'?><a/>")
        assert doc.root.tag == "a"

    def test_comments_skipped(self):
        doc = parse("<!-- pre --><a><!-- in -->x</a><!-- post -->")
        assert doc.root.text == "x"


class TestEntities:
    def test_predefined(self):
        root = parse_element("<a>&lt;tag&gt; &amp; &quot;q&quot;</a>")
        assert root.text == '<tag> & "q"'

    def test_numeric(self):
        root = parse_element("<a>&#65;&#x42;</a>")
        assert root.text == "AB"

    def test_in_attributes(self):
        root = parse_element('<a v="&amp;&lt;"/>')
        assert root.attributes["v"] == "&<"

    def test_unknown_entity_rejected(self):
        with pytest.raises(ParseError):
            parse("<a>&nope;</a>")

    @pytest.mark.parametrize("bad, offset", [
        ("<a>&#xZZ;</a>", 3),
        ("<a>&#;</a>", 3),
        ("<a>&#99999999;</a>", 3),
        ("<a>&#99999999999999999999;</a>", 3),
        ('<a v="&#x;"/>', 6),
    ])
    def test_malformed_numeric_reference_is_a_parse_error(self, bad, offset):
        with pytest.raises(ParseError) as caught:
            parse(bad)
        assert caught.value.position == offset

    def test_nul_reference_still_parses(self):
        assert parse_element("<a>&#0;</a>").text == "\x00"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "plain text",
        "<a>",
        "<a></b>",
        "<a attr></a>",
        "<a attr=unquoted></a>",
        '<a x="1" x="2"/>',
        "<a/><b/>",
        "<a>trailing</a>junk",
        "<a><b></a></b>",
        '<ax="1"/>',
        "<a><!-- open</a>",
        "<!DOCTYPE a><a/>",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_offset(self):
        with pytest.raises(ParseError) as exc_info:
            parse("<a></b>")
        assert exc_info.value.position is not None


class TestRoundtrip:
    @pytest.mark.parametrize("text", [
        "<a/>",
        '<a k="v"/>',
        "<a>text</a>",
        '<root><x i="1">one</x><x i="2">two</x><empty/></root>',
        "<a>&amp;&lt;&gt;</a>",
    ])
    def test_parse_serialize_parse(self, text):
        first = parse(text)
        second = parse(serialize(first))
        assert first.root.structurally_equal(second.root)

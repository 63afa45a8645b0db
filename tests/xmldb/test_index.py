"""Tests for the path index and query cost model."""

from hypothesis import given, settings, strategies as st

from repro.bench.harness import tally
from repro.datagen.documents import hospital_corpus
from repro.xmldb.index import PathIndex, QueryCostModel, indexed_select
from repro.xmldb.model import Document, Element
from repro.xmldb.parser import parse
from repro.xmldb.xpath import select_elements

DOC = parse("""<hospital>
  <record id="r1"><name>Alice</name><diagnosis>flu</diagnosis></record>
  <record id="r2"><name>Bob</name><diagnosis>cold</diagnosis></record>
  <record id="r3"><name>Ann</name><diagnosis>flu</diagnosis></record>
</hospital>""")
INDEX = PathIndex(DOC.root)


class TestPathIndex:
    def test_by_tag(self):
        assert len(INDEX.by_tag("record")) == 3
        assert INDEX.by_tag("ghost") == []

    def test_by_attribute(self):
        found = INDEX.by_attribute("record", "id", "r2")
        assert len(found) == 1
        assert found[0].find("name").text == "Bob"

    def test_by_child_text(self):
        found = INDEX.by_child_text("record", "diagnosis", "flu")
        assert [r.attributes["id"] for r in found] == ["r1", "r3"]

    def test_entry_count_positive(self):
        assert INDEX.entry_count() > DOC.size()


class TestIndexedSelect:
    def test_simple_tag_matches_engine(self):
        assert indexed_select(INDEX, "//record", DOC) == \
            select_elements("//record", DOC)

    def test_attr_predicate_matches_engine(self):
        query = "//record[@id='r1']"
        assert indexed_select(INDEX, query, DOC) == \
            select_elements(query, DOC)

    def test_child_text_predicate_matches_engine(self):
        query = "//record[diagnosis='flu']"
        assert indexed_select(INDEX, query, DOC) == \
            select_elements(query, DOC)

    def test_fallback_for_complex_queries(self):
        query = "/hospital/record[2]/name"
        assert indexed_select(INDEX, query, DOC) == \
            select_elements(query, DOC)

    def test_fallback_when_root_tag_queried(self):
        query = "//hospital"
        assert indexed_select(INDEX, query, DOC) == \
            select_elements(query, DOC)

    @given(st.sampled_from([
        "//record", "//name", "//diagnosis", "//ghost",
        "//record[@id='r2']", "//record[@id='nope']",
        "//record[diagnosis='flu']", "//record[name='Bob']",
        "//record/name", "/hospital/record", "//record[2]",
        "//record[diagnosis='flu']/name",
    ]))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_on_corpus(self, query):
        corpus = hospital_corpus(15, seed=31)
        index = PathIndex(corpus.root)
        assert indexed_select(index, query, corpus) == \
            select_elements(query, corpus)


class TestCostModel:
    def test_chooses_index_for_indexable(self):
        model = QueryCostModel(INDEX, DOC.size())
        strategy, cost = model.estimate("//record")
        assert strategy == "index"
        assert cost == 3

    def test_chooses_scan_for_complex(self):
        model = QueryCostModel(INDEX, DOC.size())
        strategy, cost = model.estimate("//record/name")
        assert strategy == "scan"
        assert cost == DOC.size()

    def test_prices_each_shape_by_the_postings_it_reads(self):
        model = QueryCostModel(INDEX, DOC.size())
        assert model.estimate("//record[@id='r3']") == ("index", 1)
        assert model.estimate("//record[diagnosis='flu']") == ("index", 2)

    def test_a_point_lookup_costs_one_posting_and_copies_none(self):
        # A1's 800-record corpus: the tag list holds 800 postings.
        document = hospital_corpus(800, seed=41)
        model = QueryCostModel(PathIndex(document.root), document.size())
        with tally(PathIndex, "by_tag", len) as copied:
            assert model.estimate("//record[@id='r7']") == ("index", 1)
        assert copied.count == 0

    def test_run_records_decisions(self):
        model = QueryCostModel(INDEX, DOC.size())
        model.run("//record", DOC)
        model.run("//record/name", DOC)
        assert model.decisions == {"index": 1, "scan": 1}

    def test_run_results_match_engine(self):
        model = QueryCostModel(INDEX, DOC.size())
        for query in ("//record", "//record/name",
                      "//record[@id='r3']"):
            assert model.run(query, DOC) == \
                select_elements(query, DOC)

"""A1 (ablation) — path indexes and the §2.1 cost model.

DESIGN.md design choice: XPath evaluation is naive tree-walking; hot
query shapes get an inverted path index behind a cost model.  This
ablation counts what the index saves on the hospital corpus — elements
examined: each element a tree walk visits plus each posting an index
lookup returns — and shows the cost model routing each query to the
cheaper strategy.
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.bench.harness import ExperimentResult, failed, register, tally
from repro.datagen.documents import hospital_corpus
from repro.xmldb.index import PathIndex, QueryCostModel, indexed_select
from repro.xmldb.model import Element
from repro.xmldb.xpath import select_elements

POINT = "//record[@id='r7']"
INDEXABLE = ["//record", "//diagnosis", POINT,
             "//record[diagnosis='influenza']"]
NON_INDEXABLE = ["//record/name", "/hospital/record[3]",
                 "//record[diagnosis='influenza']/name"]


def _examined(run):
    """``run()``'s answer, plus the elements it examined: every element
    a tree walk visits (one ``Element.iter`` call each) and every
    posting a :class:`PathIndex` lookup returns."""
    with ExitStack() as stack:
        counts = [stack.enter_context(tally(Element, "iter"))] + [
            stack.enter_context(tally(PathIndex, lookup, len))
            for lookup in ("by_tag", "by_attribute", "by_child_text")]
        answer = run()
    return answer, sum(count.count for count in counts)


def verdict(result: ExperimentResult) -> list[str]:
    sizes = len(result.rows)
    return failed(
        (f"answers identical between strategies at {sizes}/{sizes} sizes"
         in result.observations,
         "index and scan return identical answers at every size"),
        (all(row[2] >= 5 * row[3] for row in result.rows),
         "the index examines at least 5x fewer elements than the scan "
         "at every size"),
        (all(row[5] == row[1] and row[6] == 1 for row in result.rows),
         f"the point lookup {POINT} examines 1 posting at every size "
         "while the scan examines every element"),
        (all(row[7] == "4/3" for row in result.rows),
         "index/scan decisions read 4/3: the 4 indexable queries go to "
         "the index"),
    )


@register("A1", "ablation: inverted path indexes + cost model vs naive "
               "tree-walking XPath (§2.1 'index strategies' and 'cost "
               "models')", verdict)
def run() -> ExperimentResult:
    rows = []
    identical = 0
    for record_count in (50, 200, 800):
        document = hospital_corpus(record_count, seed=41)
        index = PathIndex(document.root)
        model = QueryCostModel(index, document.size())
        scan_hits, scan_examined = _examined(lambda: [
            select_elements(q, document) for q in INDEXABLE])
        probe_hits, probe_examined = _examined(lambda: [
            indexed_select(index, q, document) for q in INDEXABLE])
        identical += scan_hits == probe_hits
        _, point_scan = _examined(lambda: select_elements(POINT, document))
        _, point_index = _examined(
            lambda: indexed_select(index, POINT, document))
        for query in INDEXABLE + NON_INDEXABLE:
            model.run(query, document)
        rows.append([record_count, document.size(),
                     scan_examined, probe_examined,
                     scan_examined / probe_examined,
                     point_scan, point_index,
                     f"{model.decisions['index']}/{model.decisions['scan']}"])
    observations = [
        "the index examines only the postings it returns, about 26x "
        "fewer elements than the scan for the 4 hot shapes at every "
        "size; the ratio is flat because 3 of them select a fixed share "
        "of the records, while the point lookup reads 1 posting however "
        "large the document",
        "the cost model routes indexable shapes to the index and "
        "everything else to the (always-correct) scan",
        f"answers identical between strategies at {identical}/"
        f"{len(rows)} sizes",
    ]
    return ExperimentResult(
        "A1", "Ablation: path index vs naive scan "
              f"({len(INDEXABLE)} indexable + {len(NON_INDEXABLE)} "
              "fallback queries)",
        ["records", "elements", "scan examined", "index examined",
         "scan/index", "r7 scan", "r7 index", "index/scan decisions"],
        rows, observations)

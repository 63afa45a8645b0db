#!/usr/bin/env python
"""Throughput benchmarks for the ``repro.scale`` layer (ablation A7).

One section, asserting its equivalence oracles before reporting a
number — a speedup that changes answers is a bug, not a result:

* ``sharded_stores`` — hash-sharded relational / XML / UDDI stores vs
  their monolithic counterparts holding identical content.  Oracles:
  equal rows, equal query results, byte-identical UDDI state digests.

The closed-loop pipeline sweep is ``bench_gateway.py``.
``authorization_workload`` / ``response_bytes`` / ``timed`` live here
and ``bench_gateway.py`` and ``bench_multicore.py`` import them.

``--quick`` shrinks workloads for the CI perf-smoke job, which gates on
the oracles; full runs establish the numbers EXPERIMENTS.md records.
Writes ``BENCH_scale.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.core.evaluator import Decision  # noqa: E402
from repro.core.policy import Action  # noqa: E402
from repro.datagen.population import generate_population  # noqa: E402
from repro.datagen.workload import (  # noqa: E402
    subject_qualification_policies)
from repro.relational.authorization import Privilege  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.relational.table import (  # noqa: E402
    Column, ColumnType, TableSchema)
from repro.scale import (  # noqa: E402
    ShardedCollection,
    ShardedDatabase,
    ShardedUddiRegistry,
)
from repro.uddi.model import BusinessEntity, BusinessService  # noqa: E402
from repro.uddi.registry import UddiRegistry  # noqa: E402
from repro.xmldb.database import Collection  # noqa: E402
from repro.xmldb.parser import parse  # noqa: E402

DEFAULT_OUTPUT = default_output("scale")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def serialize_decision(decision: Decision) -> dict:
    """The canonical wire form the byte-identity oracle compares."""
    return {
        "granted": decision.granted,
        "determining": decision.determining.policy_id
        if decision.determining is not None else None,
        "applicable": [p.policy_id for p in decision.applicable],
        "reason": decision.reason,
    }


def response_bytes(decisions: list[Decision]) -> bytes:
    return json.dumps([serialize_decision(d) for d in decisions],
                      sort_keys=True).encode()


def authorization_workload(quick: bool):
    """Distinct (subject, action, path) triples over a shared base."""
    policy_count = 120 if quick else 400
    subject_count = 60 if quick else 200
    path_count = 10 if quick else 20
    base = subject_qualification_policies(
        policy_count, basis="role", user_count=subject_count, seed=7)
    directory = generate_population(subject_count, seed=7)
    subjects = [directory.get(f"user{i:05d}")
                for i in range(subject_count)]
    rng = random.Random(7)
    paths = [f"hospital/records/r{rng.randrange(1, 500)}/name"
             for _ in range(path_count)]
    triples = [(subject, Action.READ, path)
               for subject in subjects for path in paths]
    rng.shuffle(triples)
    return base, triples


# -- sharded stores --------------------------------------------------

def _relational_equivalence(quick: bool) -> tuple[dict, bool]:
    table_count = 8 if quick else 24
    rows_per_table = 40 if quick else 120
    mono = Database("mono")
    sharded = ShardedDatabase(shard_count=4, name="sharded")
    for t in range(table_count):
        table_schema = TableSchema(f"t{t:02d}", (
            Column("id", ColumnType.INT), Column("val", ColumnType.TEXT)))
        mono.create_table(table_schema, owner="dba")
        mono.authorization.grant("dba", "reader", f"t{t:02d}",
                                 Privilege.SELECT)
        sharded.create_table(table_schema, owner="dba")
        sharded.grant("dba", "reader", f"t{t:02d}", Privilege.SELECT)
        for r in range(rows_per_table):
            mono.insert("dba", f"t{t:02d}", id=r, val=f"v{t}-{r}")
            sharded.insert("dba", f"t{t:02d}", id=r, val=f"v{t}-{r}")
    names = mono.table_names()
    select_s, sharded_rows = timed(lambda: [
        sharded.select("reader", name, order_by="id").rows
        for name in names])
    mono_rows = [mono.select("reader", name, order_by="id").rows
                 for name in names]
    ok = (sharded_rows == mono_rows
          and sharded.table_names() == names
          and sharded.total_rows() == table_count * rows_per_table)
    return {
        "tables": table_count,
        "rows": table_count * rows_per_table,
        "select_s": round(select_s, 4),
        "selects_per_s": round(len(names) / select_s),
        "shard_generations": list(sharded.generation_stamps()),
        "oracle_rows_equal": ok,
    }, ok


def _xml_equivalence(quick: bool) -> tuple[dict, bool]:
    doc_count = 60 if quick else 240
    mono = Collection("records")
    sharded = ShardedCollection("records", shard_count=4)
    for i in range(doc_count):
        # One parsed tree shared by both stores so result equality is
        # structural, not foiled by separately parsed duplicates.
        document = parse(f"<rec><id>{i}</id><name>n{i}</name>"
                         f"<dept>d{i % 7}</dept></rec>", name=f"doc{i:04d}")
        mono.insert(f"doc{i:04d}", document)
        sharded.insert(f"doc{i:04d}", document)
    query_s, sharded_hits = timed(
        lambda: sharded.query("/rec/name/text()"))
    mono_hits = mono.query("/rec/name/text()")
    structural = sharded.query("/rec/name") == mono.query("/rec/name")
    ok = (sharded_hits == mono_hits and structural
          and sharded.doc_ids() == mono.doc_ids())
    return {
        "documents": doc_count,
        "query_s": round(query_s, 4),
        "hits": len(sharded_hits),
        "spread": sharded.spread(),
        "oracle_query_equal": ok,
    }, ok


def _uddi_equivalence(quick: bool) -> tuple[dict, bool]:
    business_count = 30 if quick else 120
    mono = UddiRegistry("mono")
    sharded = ShardedUddiRegistry(shard_count=4, name="sharded")
    for i in range(business_count):
        entity = BusinessEntity(
            business_key=f"biz-{i:04d}", name=f"Corp {i}",
            description=f"vendor {i}",
            services=(BusinessService(
                service_key=f"svc-{i:04d}", name=f"service {i}",
                category="payments"),))
        mono.save_business(entity, publisher=f"pub{i % 5}")
        sharded.save_business(entity, publisher=f"pub{i % 5}")
    find_s, sharded_rows = timed(lambda: sharded.find_service("*"))
    ok = (sharded_rows == mono.find_service("*")
          and sharded.find_business("*") == mono.find_business("*")
          and sharded.state_digest() == mono.state_digest())
    return {
        "businesses": business_count,
        "find_s": round(find_s, 4),
        "spread": sharded.spread(),
        "oracle_digest_identical": ok,
    }, ok


def bench_sharded_stores(quick: bool) -> tuple[dict, bool]:
    relational, rel_ok = _relational_equivalence(quick)
    xml, xml_ok = _xml_equivalence(quick)
    uddi, uddi_ok = _uddi_equivalence(quick)
    ok = rel_ok and xml_ok and uddi_ok
    return {
        "relational": relational,
        "xml": xml,
        "uddi": uddi,
        "oracle_all_stores_equivalent": ok,
    }, ok


SECTIONS = (
    ("sharded_stores", bench_sharded_stores),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for the CI smoke job")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report: dict = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "oracles": {},
    }
    failures = []
    for name, runner in SECTIONS:
        section, ok = runner(args.quick)
        report[name] = section
        report["oracles"][name] = ok
        if not ok:
            failures.append(name)
        headline = {k: v for k, v in section.items()
                    if k in ("speedup", "oracle_all_stores_equivalent")}
        print(f"{name}: {'ok' if ok else 'ORACLE FAILED'} {headline}")

    written = write_bench_json("scale", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

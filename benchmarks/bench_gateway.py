#!/usr/bin/env python
"""Throughput and isolation benchmarks for ``repro.gateway`` (A10).

Three sections, each asserting its oracle before reporting a number:

* ``closed_loop`` — the asyncio gateway (admission -> deficit-round-
  robin batching -> compiled epochal shard snapshots) swept over
  shards x batch size against a serial one-at-a-time evaluator.
  Oracle: byte-identical serialized responses for every configuration.
  Gate: best throughput >= ``SPEEDUP_GATE`` x the serial evaluator
  measured in the same run;
* ``tenant_isolation`` — one noisy tenant submitting at 10x its token
  bucket rate next to a well-behaved tenant.  Oracle: the
  well-behaved tenant's p99 latency and completion rate stay within
  2x of its solo baseline — fairness is a measured property, not a
  promise;
* ``streaming`` — chunked dissemination from interned snapshot
  fragments, cold pool vs warmed pool.  Oracle: the concatenated
  chunks are byte-identical to the serial serializer's output.

``--quick`` shrinks workloads for the CI perf-smoke job (which gates
on the oracles plus a relaxed speedup floor); full runs establish the
numbers EXPERIMENTS.md records.  Writes ``BENCH_gateway.json``.

``authorization_workload`` / ``response_bytes`` / ``timed`` live here
and ``bench_multicore.py`` imports them.
"""

from __future__ import annotations

import argparse
import asyncio
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
from repro.core.errors import Overloaded  # noqa: E402
from repro.core.evaluator import Decision, PolicyEvaluator  # noqa: E402
from repro.core.policy import Action  # noqa: E402
from repro.datagen.population import generate_population  # noqa: E402
from repro.datagen.workload import (  # noqa: E402
    subject_qualification_policies)
from repro.gateway import (  # noqa: E402
    AsyncRequestGateway,
    EpochalShardRouter,
    TenantConfig,
    collect,
)
from repro.scale.gateway import Request  # noqa: E402
from repro.snap.intern import InternPool  # noqa: E402
from repro.snap.xmlstore import SnapshotXmlDatabase  # noqa: E402

DEFAULT_OUTPUT = default_output("gateway")


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

#: Full runs must beat the serial evaluator, measured in the same run,
#: by this factor.
SPEEDUP_GATE = 10.0
#: The CI smoke job runs tiny workloads where constant costs dominate;
#: it gates on the oracles plus this relaxed floor.
QUICK_SPEEDUP_GATE = 2.0
#: A well-behaved tenant's p99 and completion rate must stay within
#: this factor of its solo baseline while a noisy tenant floods.
ISOLATION_FACTOR = 2.0


def stage_percentiles(stats: dict) -> dict:
    """Per-stage latency keys from a stats snapshot — where each
    request's time went (queue wait vs evaluation), not just the total."""
    return {key: value for key, value in sorted(stats.items())
            if key.startswith("stage_")
            and key.endswith(("_count", "_mean_s", "_p50_s", "_p99_s"))}


# -- 1. closed loop ------------------------------------------------------

def _run_async_gateway(router, requests, batch_size: int):
    limit = len(requests) + 1

    async def scenario():
        gateway = AsyncRequestGateway(
            router, batch_size=batch_size, queue_limit=limit,
            high_watermark=limit, low_watermark=limit,
            auto_dispatch=False,
            default_tenant=TenantConfig(rate=1e12, burst=1e12))
        start = time.perf_counter()
        futures = [gateway.submit_nowait("bench", request)
                   for request in requests]
        await gateway.process_pending()
        decisions = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
        return elapsed, decisions, gateway.stats.snapshot()

    return asyncio.run(scenario())


def bench_closed_loop(quick: bool) -> tuple[dict, bool]:
    base, triples = authorization_workload(quick)
    requests = [Request(*triple) for triple in triples]

    serial_evaluator = PolicyEvaluator(base)
    serial_s, serial = timed(
        lambda: [serial_evaluator.decide(*t) for t in triples])
    baseline = response_bytes(serial)

    configs = [(4, 64), (8, 256)] if quick else \
        [(4, 64), (8, 256), (8, 1024)]
    sweep = []
    ok = True
    best_rps = 0.0
    for shards, batch_size in configs:
        router = EpochalShardRouter.from_policies(base,
                                                  shard_count=shards)
        # Warm run pays one-time costs (table population, shard memo);
        # then two timed runs, best-of kept — every run oracle-checked.
        _, warm_decisions, _ = _run_async_gateway(router, requests,
                                                  batch_size)
        identical = response_bytes(warm_decisions) == baseline
        elapsed, stats = float("inf"), {}
        for _ in range(2):
            run_s, decisions, run_stats = _run_async_gateway(
                router, requests, batch_size)
            identical = (identical
                         and response_bytes(decisions) == baseline)
            if run_s < elapsed:
                elapsed, stats = run_s, run_stats
        ok = ok and identical
        rps = len(requests) / elapsed
        best_rps = max(best_rps, rps)
        sweep.append({
            "shards": shards,
            "batch": batch_size,
            "elapsed_s": round(elapsed, 4),
            "requests_per_s": round(rps),
            "speedup_vs_serial": round(serial_s / elapsed, 1),
            "latency_p50_s": stats["latency_p50_s"],
            "latency_p99_s": stats["latency_p99_s"],
            "latency_p999_s": stats["latency_p999_s"],
            "stage_percentiles": stage_percentiles(stats),
            "oracle_byte_identical": identical,
        })

    gate = QUICK_SPEEDUP_GATE if quick else SPEEDUP_GATE
    best_speedup = best_rps * serial_s / len(requests)
    gate_met = best_speedup >= gate
    ok = ok and gate_met
    return {
        "requests": len(requests),
        "serial_s": round(serial_s, 4),
        "serial_requests_per_s": round(len(requests) / serial_s),
        "sweep": sweep,
        "best_requests_per_s": round(best_rps),
        "best_speedup_vs_serial": round(best_speedup, 1),
        "speedup_gate": gate,
        "oracle_speedup_gate_met": gate_met,
        "oracle_byte_identical": ok,
    }, ok


# -- 2. tenant isolation -------------------------------------------------

STEADY = TenantConfig(rate=4000.0, burst=64.0, priority=2)
NOISY = TenantConfig(rate=4000.0, burst=64.0, priority=0)


def _isolation_run(router, requests, waves: int,
                   with_noisy: bool) -> dict:
    """Drive the steady tenant through *waves* bucket-sized waves;
    optionally flood a noisy tenant at 10x its bucket rate alongside.

    Latencies are measured client-side around each awaited submit, so
    they include queueing behind whatever the noisy tenant got in."""
    wave_size = int(STEADY.burst)

    async def scenario():
        gateway = AsyncRequestGateway(router, batch_size=64,
                                      queue_limit=8192,
                                      default_tenant=None)
        gateway.register("steady", STEADY)
        gateway.register("noisy", NOISY)
        latencies: list[float] = []
        steady_done = 0
        noisy_admitted = 0
        noisy_shed = 0
        stop = asyncio.Event()

        async def steady_tenant():
            nonlocal steady_done
            for wave in range(waves):
                offset = (wave * wave_size) % len(requests)
                batch = [requests[(offset + i) % len(requests)]
                         for i in range(wave_size)]
                started = time.perf_counter()
                results = await asyncio.gather(
                    *[gateway.submit("steady", request)
                      for request in batch])
                latencies.append(time.perf_counter() - started)
                steady_done += len(results)
                # Pace at the bucket rate so this tenant stays
                # well-behaved: one wave per burst refill.
                await asyncio.sleep(wave_size / STEADY.rate)
            stop.set()

        async def noisy_tenant():
            nonlocal noisy_admitted, noisy_shed
            index = 0
            while not stop.is_set():
                # 10x the bucket rate: submit 10 waves' worth per
                # refill interval, eat the Overloaded responses.
                for _ in range(wave_size):
                    try:
                        gateway.submit_nowait(
                            "noisy", requests[index % len(requests)])
                        noisy_admitted += 1
                    except Overloaded:
                        noisy_shed += 1
                    index += 1
                await asyncio.sleep(wave_size / (10.0 * NOISY.rate))

        tasks = [asyncio.ensure_future(steady_tenant())]
        if with_noisy:
            tasks.append(asyncio.ensure_future(noisy_tenant()))
        await tasks[0]
        stop.set()
        for task in tasks[1:]:
            await task
        await gateway.close()
        return latencies, steady_done, noisy_admitted, noisy_shed

    latencies, steady_done, noisy_admitted, noisy_shed = asyncio.run(
        scenario())
    ordered = sorted(latencies)
    p99 = ordered[min(len(ordered) - 1,
                      int(0.99 * len(ordered)))] if ordered else 0.0
    return {
        "steady_submitted": waves * wave_size,
        "steady_completed": steady_done,
        "completion_rate": round(steady_done / (waves * wave_size), 4),
        "wave_p99_s": round(p99, 6),
        "noisy_admitted": noisy_admitted,
        "noisy_shed": noisy_shed,
    }


def bench_tenant_isolation(quick: bool) -> tuple[dict, bool]:
    base, triples = authorization_workload(quick)
    requests = [Request(*triple) for triple in triples]
    waves = 10 if quick else 30
    router = EpochalShardRouter.from_policies(base, shard_count=8)

    solo = _isolation_run(router, requests, waves, with_noisy=False)
    contended = _isolation_run(router, requests, waves,
                               with_noisy=True)

    p99_ratio = (contended["wave_p99_s"]
                 / max(solo["wave_p99_s"], 1e-9))
    completion_ratio = (solo["completion_rate"]
                        / max(contended["completion_rate"], 1e-9))
    isolated = (p99_ratio <= ISOLATION_FACTOR
                and completion_ratio <= ISOLATION_FACTOR)
    shed_worked = contended["noisy_shed"] > 0
    ok = isolated and shed_worked
    return {
        "solo": solo,
        "contended": contended,
        "p99_ratio": round(p99_ratio, 2),
        "completion_ratio": round(completion_ratio, 2),
        "isolation_factor": ISOLATION_FACTOR,
        "oracle_noisy_tenant_shed": shed_worked,
        "oracle_steady_tenant_isolated": isolated,
    }, ok


# -- 3. streaming --------------------------------------------------------

def bench_streaming(quick: bool) -> tuple[dict, bool]:
    record_count = 400 if quick else 2000
    repeats = 10 if quick else 40
    db = SnapshotXmlDatabase()
    db.create_collection("c")
    db.insert("c", "d", "<doc>" + "".join(
        f"<rec id=\"{i}\"><name>entity {i}</name>"
        f"<val>payload value {i}</val></rec>"
        for i in range(record_count)) + "</doc>")
    db.publish()
    expected = InternPool().serialize_document(
        db.current().document("c", "d"))

    def engine():
        from repro.core.policy import PolicyBase
        return PolicyEvaluator(PolicyBase())

    async def run_streams():
        gateway = AsyncRequestGateway(
            engine(), store=db, auto_dispatch=False,
            default_tenant=TenantConfig(rate=1e12, burst=1e12))
        # Cold: the gateway's pool has never serialized this tree.
        cold_start = time.perf_counter()
        cold = await collect(gateway.stream_document("t", "c", "d"))
        cold_s = time.perf_counter() - cold_start
        # Warm: the cold stream above interned what it serialized.
        warm_start = time.perf_counter()
        for _ in range(repeats):
            warm = await collect(
                gateway.stream_document("t", "c", "d"))
        warm_s = (time.perf_counter() - warm_start) / repeats
        return cold, cold_s, warm, warm_s, gateway.stats.snapshot()

    cold, cold_s, warm, warm_s, stats = asyncio.run(run_streams())
    ok = cold == expected and warm == expected
    size = len(expected.encode())
    return {
        "document_bytes": size,
        "cold_stream_s": round(cold_s, 5),
        "cold_mb_per_s": round(size / cold_s / 1e6, 1),
        "warm_stream_s": round(warm_s, 5),
        "warm_mb_per_s": round(size / warm_s / 1e6, 1),
        "warm_over_cold": round(cold_s / warm_s, 1),
        "streams": stats["streams"],
        "stream_chunks": stats["stream_chunks"],
        "stage_percentiles": stage_percentiles(stats),
        "oracle_byte_identical": ok,
    }, ok


SECTIONS = (
    ("closed_loop", bench_closed_loop),
    ("tenant_isolation", bench_tenant_isolation),
    ("streaming", bench_streaming),
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
                    if k in ("best_requests_per_s",
                             "best_speedup_vs_serial",
                             "p99_ratio", "warm_mb_per_s")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("gateway", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Multi-core serving benchmarks for ``repro.multicore`` (A12).

The workload is the one the multicore tier exists for:
content-dependent authorization.  The policy compiler already makes
metadata-only decisions nearly free (BENCH_compile), so shipping those
to another core buys nothing — but a policy whose *condition* is an
XPath predicate over the record being read (the paper's
content-dependent access control) must parse and query the payload on
every request.  That per-request CPU cannot be precompiled away, and it
is exactly what the dispatcher ships to N forked event-loop workers.

Three sections, each asserting its oracle before reporting a number:

* ``closed_loop`` — the process-per-core dispatcher (admission →
  per-worker pickle-5 frames → shard evaluation in N forked workers)
  against the single-process asyncio gateway on the same workload.
  Oracle: byte-identical serialized responses on **every** swept
  configuration.  Gate: capacity on >= 4 cores must reach
  ``SPEEDUP_OVER_ASYNC_GATE`` x the async gateway's best — measured
  directly when the machine has >= 4 cores (``gate_basis:
  "measured"``), otherwise projected from measured inputs by the
  scaling model below (``gate_basis: "scaling_model"``);
* ``scaling_model`` — the two quantities that bound multicore
  throughput, each *measured*, never assumed: the per-worker
  evaluation rate (direct ``decide_batch`` over the same shard-grouped
  batches) and the dispatcher-side per-request overhead (admission +
  interning + framing), taken by differencing a one-logical-worker
  ``workers=0`` run — which round-trips every frame through the
  pickle-5 codec — against pure evaluation.  That difference charges
  both codec directions to the dispatcher, so the ceiling is an
  *underestimate*: honest in the conservative direction.  Projected
  capacity at N workers is ``min(dispatcher_ceiling, N x eval_rate)``;
  every model input lands in the report so the projection is
  auditable;
* ``degraded`` — the kill-one-worker overlay: a worker dies; the
  survivors' responses stay byte-identical to the oracle and the
  victim's shards fail with typed
  :class:`~repro.core.errors.ReplicaUnavailable` — degraded, never
  wrong.

``--quick`` shrinks the workload for the CI perf-smoke job (which
gates on the oracles plus a relaxed capacity floor); full runs
establish the numbers EXPERIMENTS.md records.  Writes
``BENCH_multicore.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import pathlib
import platform
import random
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench_gateway import response_bytes, timed  # noqa: E402
from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.core.credentials import has_role  # noqa: E402
from repro.core.errors import ParseError, ReplicaUnavailable  # noqa: E402
from repro.core.policy import Action, deny, grant  # noqa: E402
from repro.datagen.documents import DEPARTMENTS, DIAGNOSES  # noqa: E402
from repro.datagen.population import generate_population  # noqa: E402
from repro.gateway import (  # noqa: E402
    AsyncRequestGateway,
    EpochalShardRouter,
    TenantConfig,
)
from repro.multicore import MulticoreGateway  # noqa: E402
from repro.scale.gateway import Request  # noqa: E402
from repro.xmldb.parser import parse as parse_xml  # noqa: E402
from repro.xmldb.xpath import select_elements  # noqa: E402

DEFAULT_OUTPUT = default_output("multicore")

#: On >= 4 cores the multicore tier must reach this multiple of the
#: single-process async gateway's best throughput.
SPEEDUP_OVER_ASYNC_GATE = 3.0
#: The CI smoke job runs a tiny workload where constant costs weigh
#: more; it gates on the oracles plus this relaxed floor.
QUICK_SPEEDUP_GATE = 2.0

SHARDS = 8
BATCH = 64
WORKER_SWEEP = (1, 2, 4)
WIDE_OPEN = TenantConfig(rate=1e12, burst=1e12)

#: Path heads — one per hospital-network site, so the workload spreads
#: across every shard instead of hashing to one.
SITES = ("hospital", "clinic", "research", "pharmacy",
         "billing", "archive", "school", "insurer")


def cores_available() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return len(affinity(0))
        except OSError:  # pragma: no cover - exotic platform
            pass
    return os.cpu_count() or 1


# -- the content-dependent workload --------------------------------------

def record_markup(rng: random.Random, record_id: str,
                  visits: int) -> str:
    """One patient record as markup — the payload a READ inspects."""
    body = "".join(
        f'<visit n="{v + 1}">'
        f"<date>2003-{rng.randrange(1, 13):02d}-"
        f"{rng.randrange(1, 29):02d}</date>"
        f"<diagnosis>{rng.choice(DIAGNOSES)}</diagnosis>"
        f"<amount>{rng.randrange(50, 2000)}</amount>"
        "</visit>"
        for v in range(visits))
    return (f'<record id="{record_id}">'
            f"<department>{rng.choice(DEPARTMENTS)}</department>"
            f"{body}</record>")


def _record_root(payload):
    if not isinstance(payload, str):
        return None
    try:
        return parse_xml(payload).root
    except ParseError:
        # Fail closed: a condition over unreadable content never grants.
        return None


def lacks_diagnosis(term: str):
    """Content condition: no visit in the record carries *term*."""
    def condition(payload) -> bool:
        root = _record_root(payload)
        if root is None:
            return False
        return not select_elements(f"//visit[diagnosis='{term}']", root)
    return condition


def billing_within(limit: int):
    """Content condition: the record's visit amounts sum under *limit*."""
    def condition(payload) -> bool:
        root = _record_root(payload)
        if root is None:
            return False
        total = sum(int(el.text()) for el in
                    select_elements("//amount", root))
        return total <= limit
    return condition


def content_workload(quick: bool):
    """Policies with XPath content conditions + payload-bearing reads.

    Returns ``(policies, requests)`` — most requests carry the record
    markup their decision must inspect; a metadata-only fraction
    exercises the memoized fast path alongside.
    """
    record_visits = 4 if quick else 6
    records_per_site = 4 if quick else 8
    subject_count = 30 if quick else 80
    request_count = 480 if quick else 1920

    rng = random.Random(11)
    directory = generate_population(subject_count, seed=11)
    subjects = [directory.get(f"user{i:05d}")
                for i in range(subject_count)]

    policies = []
    for site in SITES:
        policies.append(grant(has_role("chief-physician"), Action.READ,
                              f"{site}/**"))
        policies.append(grant(has_role("doctor"), Action.READ,
                              f"{site}/records/**",
                              condition=lacks_diagnosis(
                                  rng.choice(DIAGNOSES))))
        policies.append(grant(has_role("nurse"), Action.READ,
                              f"{site}/records/**",
                              condition=billing_within(
                                  rng.randrange(2000, 6000))))
        policies.append(grant(has_role("researcher"), Action.READ,
                              f"{site}/records/**",
                              condition=lacks_diagnosis(
                                  rng.choice(DIAGNOSES))))
        policies.append(deny(has_role("patient"), Action.READ,
                             f"{site}/records/**", priority=1))

    paths, payloads = [], {}
    for site in SITES:
        for index in range(records_per_site):
            path = f"{site}/records/r{index + 1}/clinical"
            paths.append(path)
            payloads[path] = record_markup(rng, f"r{index + 1}",
                                           record_visits)
    requests = []
    for _ in range(request_count):
        path = rng.choice(paths)
        # A quarter of reads are metadata probes (no payload): they
        # take the memoized compiled-cell path and keep the fast lane
        # honest in the same run.
        payload = payloads[path] if rng.random() < 0.75 else None
        requests.append(Request(rng.choice(subjects), Action.READ,
                                path, payload))
    return policies, requests


def reference_baseline(policies, requests):
    """Serial compiled evaluation in request order — the byte oracle."""
    router = EpochalShardRouter.from_policies(
        policies, shard_count=SHARDS)
    decisions = []
    for request in requests:
        shard = router.shard_for_path(request.path)
        decisions.extend(router.engine(shard).decide_batch(
            [request.triple()]))
    return response_bytes(decisions)


# -- gateway runners -----------------------------------------------------

def run_async_gateway(policies, requests):
    """Best-of-two single-process async gateway run (the incumbent)."""
    limit = len(requests) + 1
    router = EpochalShardRouter.from_policies(policies,
                                              shard_count=SHARDS)

    async def scenario():
        gateway = AsyncRequestGateway(
            router, batch_size=BATCH, queue_limit=limit,
            high_watermark=limit, low_watermark=limit,
            auto_dispatch=False, default_tenant=WIDE_OPEN)
        start = time.perf_counter()
        futures = [gateway.submit_nowait("bench", request)
                   for request in requests]
        await gateway.process_pending()
        decisions = [future.result() for future in futures]
        return time.perf_counter() - start, decisions

    best_s, decisions = asyncio.run(scenario())
    run_s, decisions = asyncio.run(scenario())
    return min(best_s, run_s), decisions


def run_multicore(policies, requests, workers: int,
                  logical_workers: int | None = None):
    """One multicore run → (elapsed, decisions, stats snapshot)."""
    limit = len(requests) + 1

    async def scenario():
        gateway = MulticoreGateway(
            policies, workers=workers,
            logical_workers=logical_workers or 1,
            shard_count=SHARDS, batch_size=BATCH, queue_limit=limit,
            high_watermark=limit, low_watermark=limit,
            auto_dispatch=workers > 0, default_tenant=WIDE_OPEN)
        async with gateway:
            start = time.perf_counter()
            futures = [gateway.submit_nowait("bench", request)
                       for request in requests]
            if workers == 0:
                await gateway.process_pending()
            decisions = await asyncio.gather(*futures)
            elapsed = time.perf_counter() - start
            return elapsed, decisions, gateway.stats.snapshot()

    return asyncio.run(scenario())


def stage_percentiles(stats: dict) -> dict:
    """The per-stage latency keys a snapshot carries (if recorded)."""
    return {key: value for key, value in sorted(stats.items())
            if key.startswith("stage_")
            and key.endswith(("_count", "_mean_s", "_p50_s", "_p99_s"))}


# -- 1 + 2. closed loop and the scaling model ----------------------------

def measure_model_inputs(policies, requests, baseline):
    """Measure the two pipeline bounds.  Returns (inputs, byte_ok)."""
    router = EpochalShardRouter.from_policies(
        policies, shard_count=SHARDS)
    by_shard: dict[int, list] = {}
    for request in requests:
        shard = router.shard_for_path(request.path)
        by_shard.setdefault(shard, []).append(request.triple())

    def evaluate_all():
        out = []
        for shard in sorted(by_shard):
            out.extend(router.engine(shard).decide_batch(by_shard[shard]))
        return out

    evaluate_all()                      # warm the compiled tables
    eval_s = min(timed(evaluate_all)[0] for _ in range(3))
    worker_eval_rps = len(requests) / eval_s

    # Whole pipeline on one logical worker: dispatch cost is the run's
    # wall time minus the evaluation time the worker itself reported
    # *inside the same run* (``evaluate_s`` in the stats), so the
    # difference never spans two separately-noisy runs.  workers=0
    # round-trips every frame through the pickle-5 codec, so framing
    # and interning costs are real — and both codec directions land on
    # the dispatcher side, making the ceiling conservative.  Best of
    # three, every run byte-checked.
    byte_ok = True
    best = None
    for _ in range(3):
        total_s, decisions, stats = run_multicore(
            policies, requests, workers=0, logical_workers=1)
        byte_ok = byte_ok and response_bytes(decisions) == baseline
        dispatch_s = max(total_s - stats["evaluate_s"], 1e-9)
        if best is None or dispatch_s < best[0]:
            best = (dispatch_s, total_s, stats)
    dispatch_total_s, total_s, stats = best

    dispatch_s_per_request = dispatch_total_s / len(requests)
    return {
        "worker_eval_rps": round(worker_eval_rps),
        "eval_s_per_request": round(eval_s / len(requests), 9),
        "single_pipeline_rps": round(len(requests) / total_s),
        "dispatch_s_per_request": round(dispatch_s_per_request, 9),
        "dispatcher_ceiling_rps": round(1.0 / dispatch_s_per_request),
        "stage_percentiles": stage_percentiles(stats),
    }, byte_ok


def modeled_rps(inputs: dict, workers: int) -> float:
    """Pipeline bound: the dispatcher core feeds N evaluating cores."""
    return min(float(inputs["dispatcher_ceiling_rps"]),
               workers * float(inputs["worker_eval_rps"]))


def bench_closed_loop(quick: bool) -> tuple[dict, bool]:
    policies, requests = content_workload(quick)
    baseline = reference_baseline(policies, requests)

    async_s, async_decisions = run_async_gateway(policies, requests)
    async_rps = len(requests) / async_s
    byte_ok = response_bytes(async_decisions) == baseline

    cores = cores_available()
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    sweep = []
    measured_at_4 = None
    for workers in (WORKER_SWEEP if can_fork else ()):
        elapsed, decisions, stats = run_multicore(
            policies, requests, workers=workers)
        identical = response_bytes(decisions) == baseline
        byte_ok = byte_ok and identical
        rps = len(requests) / elapsed
        if workers == 4:
            measured_at_4 = rps
        sweep.append({
            "workers": workers,
            "elapsed_s": round(elapsed, 4),
            "requests_per_s": round(rps),
            "speedup_vs_async": round(rps / async_rps, 2),
            "oracle_byte_identical": identical,
            "stage_percentiles": stage_percentiles(stats),
        })

    model_inputs, model_ok = measure_model_inputs(policies, requests,
                                                  baseline)
    byte_ok = byte_ok and model_ok
    projection = [{
        "workers": n,
        "modeled_requests_per_s": round(modeled_rps(model_inputs, n)),
        "modeled_speedup_vs_async": round(
            modeled_rps(model_inputs, n) / async_rps, 2),
    } for n in (1, 2, 4, 8)]

    gate = QUICK_SPEEDUP_GATE if quick else SPEEDUP_OVER_ASYNC_GATE
    if cores >= 4 and measured_at_4 is not None:
        gate_basis = "measured"
        capacity_rps = measured_at_4
    else:
        # Fewer cores than workers: forked processes time-slice one
        # CPU, so the sweep cannot show scaling.  Gate on the
        # measured-inputs projection at 4 workers and say so.
        gate_basis = "scaling_model"
        capacity_rps = modeled_rps(model_inputs, 4)
    speedup = capacity_rps / async_rps
    gate_met = speedup >= gate

    return {
        "requests": len(requests),
        "policies": len(policies),
        "cores_available": cores,
        "async_best_requests_per_s": round(async_rps),
        "measured_sweep": sweep,
        "scaling_model": {
            "inputs": model_inputs,
            "projection": projection,
        },
        "gate_basis": gate_basis,
        "capacity_at_4_workers_rps": round(capacity_rps),
        "speedup_over_async": round(speedup, 2),
        "speedup_gate": gate,
        "oracle_byte_identical": byte_ok,
        "oracle_speedup_gate_met": gate_met,
    }, byte_ok and gate_met


# -- 3. degraded service -------------------------------------------------

def bench_degraded(quick: bool) -> tuple[dict, bool]:
    policies, requests = content_workload(quick)
    workers = 4
    victim = 1
    limit = len(requests) + 1

    router = EpochalShardRouter.from_policies(
        policies, shard_count=SHARDS)
    expected = []
    for request in requests:
        shard = router.shard_for_path(request.path)
        expected.append(response_bytes(router.engine(shard).decide_batch(
            [request.triple()])))

    async def scenario():
        gateway = MulticoreGateway(
            policies, workers=0, logical_workers=workers,
            shard_count=SHARDS, batch_size=BATCH, queue_limit=limit,
            high_watermark=limit, low_watermark=limit,
            auto_dispatch=False, default_tenant=WIDE_OPEN)
        async with gateway:
            gateway.kill_worker(victim)
            futures = [gateway.submit_nowait("bench", request)
                       for request in requests]
            await gateway.process_pending()
            outcomes = []
            for index, future in enumerate(futures):
                shard = gateway.router.shard_for_path(
                    requests[index].path)
                owner = gateway.worker_for_shard(shard)
                error = future.exception()
                outcomes.append((owner, error,
                                 None if error is not None
                                 else response_bytes([future.result()])))
            return outcomes

    started = time.perf_counter()
    outcomes = asyncio.run(scenario())
    elapsed = time.perf_counter() - started

    served = failed = 0
    ok = True
    for index, (owner, error, payload) in enumerate(outcomes):
        if owner == victim:
            failed += 1
            ok = ok and isinstance(error, ReplicaUnavailable)
        else:
            served += 1
            ok = ok and error is None and payload == expected[index]
    ok = ok and served > 0 and failed > 0
    return {
        "workers": workers,
        "killed_worker": victim,
        "served": served,
        "failed_typed": failed,
        "served_fraction": round(served / len(outcomes), 3),
        "elapsed_s": round(elapsed, 4),
        "oracle_survivors_byte_identical": ok,
    }, ok


SECTIONS = (
    ("closed_loop", bench_closed_loop),
    ("degraded", bench_degraded),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for the CI smoke job")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report: dict = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores_available": cores_available(),
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
                    if k in ("capacity_at_4_workers_rps", "gate_basis",
                             "speedup_over_async", "served_fraction")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("multicore", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Resilience benchmarks for the ``repro.faults`` layer (ablation A6).

Sweeps per-operation fault probability over the three wired client
paths and writes a machine-readable ``BENCH_faults.json``:

* ``transport``     — SOAP request/reply through :class:`ReliableChannel`
  (retry + timeout + frame checksums) vs the bare ``MessageBus.send``;
* ``uddi``          — a publish/inquiry workload through
  :class:`ResilientUddiClient` (retries + idempotency keys + staleness
  watermark) vs a single unretried pass, measured by *convergence to
  the fault-free registry digest*;
* ``dissemination`` — packet delivery through
  :class:`ResilientSubscriber` (manifest + MAC checks, retried) vs one
  unretried checked delivery.

Each section reports completion-rate and retry-overhead curves
(attempts and logical backoff ticks per successful call) as the fault
rate grows.  Two properties are asserted as oracles and gate the exit
code:

1. fail-closed: every completed call is byte-identical to its
   fault-free run (any divergence is an oracle failure);
2. the resilience win: at a 10% per-operation fault rate the retried
   path completes >= 95% of seeds, strictly more than the unretried
   baseline.

``--quick`` shrinks the seed count for the CI smoke job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.core.credentials import anyone, has_role  # noqa: E402
from repro.core.errors import (  # noqa: E402
    CompletenessError, SecurityError, TransportError)
from repro.core.subjects import Role, Subject  # noqa: E402
from repro.crypto.keys import KeyStore  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultClock, FaultInjector, FaultPlan, RetryPolicy)
from repro.uddi.model import BusinessEntity, BusinessService  # noqa: E402
from repro.uddi.registry import UddiRegistry  # noqa: E402
from repro.uddi.resilient import (  # noqa: E402
    FaultyRegistry, FederatedRegistry, ResilientUddiClient)
from repro.wsa.reliable import ReliableChannel  # noqa: E402
from repro.wsa.soap import SoapEnvelope  # noqa: E402
from repro.wsa.transport import MessageBus  # noqa: E402
from repro.xmldb.parser import parse  # noqa: E402
from repro.xmldb.serializer import serialize  # noqa: E402
from repro.xmlsec.authorx import (  # noqa: E402
    XmlPolicyBase, xml_deny, xml_grant)
from repro.xmlsec.dissemination import (  # noqa: E402
    Disseminator, FaultyChannel, ResilientSubscriber, open_packet)

DEFAULT_OUTPUT = default_output("faults")

FAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)
ACCEPT_RATE = 0.1       # the acceptance-criterion sweep point ...
ACCEPT_COMPLETION = 0.95  # ... and the completion it must reach


def payload(reply) -> str:
    return json.dumps([reply.operation, sorted(reply.parameters.items())])


def curve_row(rate, completed, total, baseline_completed, attempts,
              backoff):
    successes = max(completed, 1)
    return {
        "fault_rate": rate,
        "seeds": total,
        "completed": completed,
        "completion_rate": round(completed / total, 3),
        "baseline_completed": baseline_completed,
        "baseline_completion_rate": round(baseline_completed / total, 3),
        "mean_attempts": round(attempts / successes, 2),
        "mean_backoff_ticks": round(backoff / successes, 2),
    }


def check_curves(rows) -> tuple[bool, bool]:
    """(fail-closed held, >=95%-at-10% acceptance held)."""
    accept = True
    for row in rows:
        if row["fault_rate"] == ACCEPT_RATE:
            accept = (row["completion_rate"] >= ACCEPT_COMPLETION
                      and row["completed"] > row["baseline_completed"])
    return accept


# -- 1. SOAP transport --------------------------------------------------

def bench_transport(quick: bool) -> tuple[dict, bool]:
    seeds = 40 if quick else 120
    sites = ("transport:svc", "transport:client<-reply")

    def handler(envelope):
        return envelope.reply("echoed", dict(envelope.parameters))

    def req():
        return SoapEnvelope("ping", {"x": "42"}, sender="client",
                            receiver="svc")

    oracle_bus = MessageBus()
    oracle_bus.register("svc", handler)
    oracle = payload(oracle_bus.send(req()))

    rows = []
    fail_closed = True
    for rate in FAULT_RATES:
        completed = attempts = backoff = baseline = 0
        for seed in range(seeds):
            plan = FaultPlan.random(seed, sites, rate, horizon=60)
            bus = MessageBus(faults=FaultInjector(
                plan, FaultClock(), seed=seed))
            bus.register("svc", handler)
            channel = ReliableChannel(
                bus, RetryPolicy(max_attempts=8, jitter_seed=seed),
                timeout_ticks=50)
            try:
                reply = channel.call(req())
            except TransportError:
                continue
            fail_closed = fail_closed and payload(reply) == oracle
            completed += 1
            attempts += channel.telemetry.attempts
            backoff += channel.telemetry.backoff_ticks

            bare = MessageBus(faults=FaultInjector(
                FaultPlan.random(seed, sites, rate, horizon=60),
                FaultClock(), seed=seed))
            bare.register("svc", handler)
            try:
                baseline += payload(bare.send(req())) == oracle
            except TransportError:
                pass
        rows.append(curve_row(rate, completed, seeds, baseline,
                              attempts, backoff))
    accept = check_curves(rows)
    return {
        "curves": rows,
        "oracle_fail_closed": fail_closed,
        "oracle_95pct_at_10pct": accept,
    }, fail_closed and accept


# -- 2. federated UDDI --------------------------------------------------

def _entities():
    out = []
    for i in range(3):
        services = tuple(
            BusinessService(f"svc-{i}-{j}", f"Service {i}.{j}")
            for j in range(2))
        out.append(BusinessEntity(f"biz-{i}", f"Biz {i}", "", "",
                                  services))
    return out


def _uddi_workload(client):
    for entity in _entities():
        client.save_business(entity, publisher=f"pub-{entity.business_key}")
    client.get_business_detail("biz-0")
    client.find_service("*")


def bench_uddi(quick: bool) -> tuple[dict, bool]:
    seeds = 40 if quick else 120
    oracle_registry = UddiRegistry("oracle")
    for entity in _entities():
        oracle_registry.save_business(
            entity, publisher=f"pub-{entity.business_key}")
    oracle = oracle_registry.state_digest()

    def build(seed, rate, max_attempts):
        clock = FaultClock()
        replicas = []
        for i in range(2):
            plan = FaultPlan.random(seed * 2 + i, [f"registry:rep{i}"],
                                    rate, horizon=80)
            replicas.append(FaultyRegistry(
                UddiRegistry(f"rep{i}"),
                FaultInjector(plan, clock, seed=seed)))
        client = ResilientUddiClient(
            FederatedRegistry(replicas),
            RetryPolicy(max_attempts=max_attempts, jitter_seed=seed),
            clock)
        return client, replicas

    rows = []
    fail_closed = True
    for rate in FAULT_RATES:
        completed = attempts = backoff = baseline = 0
        for seed in range(seeds):
            client, replicas = build(seed, rate, max_attempts=10)
            try:
                _uddi_workload(client)
            except TransportError:
                continue
            fail_closed = fail_closed and all(
                r.registry.state_digest() == oracle for r in replicas)
            completed += 1
            # 5 workload calls per seed; report per-call means.
            attempts += client.total_attempts / 5
            backoff += client.total_backoff_ticks / 5

            bare_client, bare_reps = build(seed, rate, max_attempts=1)
            try:
                _uddi_workload(bare_client)
                baseline += all(r.registry.state_digest() == oracle
                                for r in bare_reps)
            except TransportError:
                pass
        rows.append(curve_row(rate, completed, seeds, baseline,
                              attempts, backoff))
    accept = check_curves(rows)
    return {
        "curves": rows,
        "oracle_converges_to_fault_free_digest": fail_closed,
        "oracle_95pct_at_10pct": accept,
    }, fail_closed and accept


# -- 3. dissemination ---------------------------------------------------

def bench_dissemination(quick: bool) -> tuple[dict, bool]:
    seeds = 40 if quick else 120
    document = parse(
        '<hospital><record id="r1"><name>Alice</name>'
        '<diagnosis>flu</diagnosis><ssn>123</ssn></record>'
        '<record id="r2"><name>Bob</name><diagnosis>cold</diagnosis>'
        '<ssn>456</ssn></record></hospital>', name="records")
    base = XmlPolicyBase([
        xml_grant(has_role("doctor"), "/hospital"),
        xml_deny(anyone(), "//ssn"),
    ])
    disseminator = Disseminator(base)
    packet = disseminator.package("records", document)
    distributor = disseminator.distributor(
        {"dr": Subject("dr", roles={Role("doctor")})})
    store = KeyStore("rx-dr")
    for key in distributor.grant("dr").keys:
        store.import_key(key)
    oracle = serialize(open_packet(packet, store))

    rows = []
    fail_closed = True
    for rate in FAULT_RATES:
        completed = attempts = backoff = baseline = 0
        for seed in range(seeds):
            clock = FaultClock()
            channel = FaultyChannel(FaultInjector(
                FaultPlan.random(seed, ["dissemination:channel"], rate,
                                 horizon=40),
                clock, seed=seed))
            subscriber = ResilientSubscriber(
                store, RetryPolicy(max_attempts=8, jitter_seed=seed),
                clock)
            try:
                view = subscriber.receive(
                    lambda: channel.deliver(packet))
            except (TransportError, SecurityError, CompletenessError):
                continue
            fail_closed = fail_closed and serialize(view) == oracle
            completed += 1
            attempts += subscriber.telemetry.attempts
            backoff += subscriber.telemetry.backoff_ticks

            bare = ResilientSubscriber(
                store, RetryPolicy(max_attempts=1, jitter_seed=seed),
                FaultClock())
            bare_channel = FaultyChannel(FaultInjector(
                FaultPlan.random(seed, ["dissemination:channel"], rate,
                                 horizon=40),
                bare.clock, seed=seed))
            try:
                bare_view = bare.receive(
                    lambda: bare_channel.deliver(packet))
                baseline += serialize(bare_view) == oracle
            except (TransportError, SecurityError, CompletenessError):
                pass
        rows.append(curve_row(rate, completed, seeds, baseline,
                              attempts, backoff))
    accept = check_curves(rows)
    return {
        "curves": rows,
        "oracle_view_byte_identical": fail_closed,
        "oracle_95pct_at_10pct": accept,
    }, fail_closed and accept


SECTIONS = (
    ("transport", bench_transport),
    ("uddi", bench_uddi),
    ("dissemination", bench_dissemination),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer seeds for the CI smoke job")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report: dict = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "fault_rates": list(FAULT_RATES),
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
        at_accept = next(
            (row for row in section["curves"]
             if row["fault_rate"] == ACCEPT_RATE), {})
        print(f"{name}: {'ok' if ok else 'ORACLE DIVERGED'} "
              f"@{ACCEPT_RATE:.0%} faults: "
              f"retried {at_accept.get('completion_rate')} vs bare "
              f"{at_accept.get('baseline_completion_rate')}, "
              f"{at_accept.get('mean_attempts')} attempts/call")

    written = write_bench_json("faults", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle divergence in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

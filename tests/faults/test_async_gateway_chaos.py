"""Chaos battery for the asyncio gateway.

The fail-closed invariant of ``test_scale_chaos.py``, over 60 seeds,
against the compiled epochal router and with *concurrent tenants*:
every response from an :class:`AsyncRequestGateway` under a bounded
fault plan is either byte-identical to the fault-free run's response for the same request,
or a *typed* :class:`TransportError` — never a silently wrong grant,
and streams never yield corrupted bytes.

``auto_dispatch=False`` + ``process_pending`` keeps each run
deterministic: batches drain in deficit-round-robin order on the
caller's task, so the injector's per-site step counters advance
identically for identical (seed, plan) pairs.
"""

import asyncio
import json
import random

import pytest

from repro.core.errors import TransportError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gateway import (
    AsyncRequestGateway,
    EpochalShardRouter,
    TenantConfig,
)
from repro.scale.gateway import Request
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase

from tests.scale.workloads import random_policies, random_requests

SHARDS = 4
SITES = tuple(f"agateway:shard{i}" for i in range(SHARDS)) + (
    "agateway:stream",)
SEEDS = range(60)
TENANTS = ("alpha", "beta", "gamma")


def build_engine(seed: int) -> EpochalShardRouter:
    return EpochalShardRouter.from_policies(
        random_policies(random.Random(seed), 25), shard_count=SHARDS)


def workload(seed: int):
    return random_requests(random.Random(seed + 9000), 40)


def decision_bytes(decision) -> bytes:
    """Canonical wire form — what the byte-identity oracle compares."""
    return json.dumps({
        "granted": decision.granted,
        "determining": decision.determining.policy_id
        if decision.determining is not None else None,
        "applicable": [p.policy_id for p in decision.applicable],
        "reason": decision.reason,
    }, sort_keys=True).encode()


def run(engine: EpochalShardRouter, requests,
        faults: FaultInjector | None = None, batch_size: int = 8):
    """One deterministic async run → per-request outcome list.

    Requests are spread round-robin over three tenants, so every batch
    the DRR scheduler cuts interleaves tenants — the engine is shared
    between oracle and chaotic runs (decisions are read-only)."""

    async def scenario():
        gateway = AsyncRequestGateway(
            engine, batch_size=batch_size, faults=faults,
            auto_dispatch=False,
            default_tenant=TenantConfig(rate=1e9, burst=1e9))
        futures = [
            gateway.submit_nowait(TENANTS[index % len(TENANTS)],
                                  Request(*request))
            for index, request in enumerate(requests)]
        await gateway.process_pending()
        outcomes = []
        for future in futures:
            error = future.exception()
            if error is None:
                outcomes.append(("ok", decision_bytes(future.result())))
            else:
                outcomes.append(("err", type(error).__name__))
        return outcomes

    return asyncio.run(scenario())


class TestFailClosed:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_or_typed_error(self, seed):
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        assert all(kind == "ok" for kind, _ in oracle)
        plan = FaultPlan.random(seed, sites=SITES, rate=0.3,
                                horizon=50)
        chaotic = run(engine, requests, faults=FaultInjector(plan))
        for (kind, value), (_, expected) in zip(chaotic, oracle):
            if kind == "ok":
                assert value == expected
            else:
                error_type = getattr(
                    __import__("repro.core.errors", fromlist=[value]),
                    value)
                assert issubclass(error_type, TransportError)

    @pytest.mark.parametrize("seed", [0, 7, 23, 41])
    def test_same_seed_same_outcomes(self, seed):
        engine, requests = build_engine(seed), workload(seed)
        plan = FaultPlan.random(seed, sites=SITES, rate=0.4,
                                horizon=50)
        first = run(engine, requests, faults=FaultInjector(plan))
        again = run(engine, requests, faults=FaultInjector(
            FaultPlan.random(seed, sites=SITES, rate=0.4, horizon=50)))
        assert first == again

    @pytest.mark.parametrize("seed", [3, 19])
    def test_faults_never_flip_a_decision(self, seed):
        engine, requests = build_engine(seed), workload(seed)
        oracle = dict(enumerate(run(engine, requests)))
        plan = FaultPlan.random(seed, sites=SITES, rate=0.6,
                                horizon=50)
        chaotic = run(engine, requests, faults=FaultInjector(plan))
        survivors = [i for i, (kind, _) in enumerate(chaotic)
                     if kind == "ok"]
        assert survivors, "rate 0.6 should still let some through"
        for index in survivors:
            assert chaotic[index] == oracle[index]


class TestTargetedFaults:
    def test_crash_one_shard_delay_another_under_concurrent_tenants(self):
        """The ISSUE's targeted scenario: one shard crashed, another
        delayed, three tenants interleaved.  Crashed-shard requests
        fail typed, delayed-shard and healthy-shard requests answer
        byte-identically to the oracle."""
        seed = 5
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        shard_of = [engine.shard_for_path(r[2]) for r in requests]
        crashed = max(set(shard_of), key=shard_of.count)
        delayed = next(s for s in sorted(set(shard_of))
                       if s != crashed)
        plan = FaultPlan()
        for op_index in range(40):
            plan.add(f"agateway:shard{crashed}", op_index,
                     FaultKind.CRASH)
            plan.add(f"agateway:shard{delayed}", op_index,
                     FaultKind.DELAY)
        injector = FaultInjector(plan)
        chaotic = run(engine, requests, faults=injector)
        for index, (kind, value) in enumerate(chaotic):
            if shard_of[index] == crashed:
                assert (kind, value) == ("err", "ReplicaUnavailable")
            else:
                assert (kind, value) == oracle[index]
        assert injector.clock.now() > 0     # the delays charged time

    def test_drop_is_typed_not_silent(self):
        seed = 12
        engine, requests = build_engine(seed), workload(seed)
        target = engine.shard_for_path(requests[0][2])
        plan = FaultPlan()
        plan.add(f"agateway:shard{target}", 0, FaultKind.DROP)
        chaotic = run(engine, requests, faults=FaultInjector(plan))
        dropped = [value for kind, value in chaotic if kind == "err"]
        assert dropped and set(dropped) == {"MessageDropped"}


class TestStreamingChaos:
    def make_store(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert(
            "c", "d1",
            "<doc>" + "".join(
                f"<rec id=\"{i}\"><v>payload {i}</v></rec>"
                for i in range(30)) + "</doc>")
        db.publish()
        return db

    def stream_once(self, db, faults=None, chunk_size=64):
        async def scenario():
            gateway = AsyncRequestGateway(
                _noop_engine(), store=db, faults=faults,
                auto_dispatch=False,
                default_tenant=TenantConfig(rate=1e9, burst=1e9))
            try:
                text = "".join([chunk async for chunk in
                                gateway.stream_document(
                                    "t", "c", "d1", chunk_size=chunk_size)])
                return ("ok", text)
            except TransportError as exc:
                return ("err", type(exc).__name__)

        return asyncio.run(scenario())

    @pytest.mark.parametrize("seed", range(20))
    def test_stream_bytes_identical_or_typed_error(self, seed):
        db = self.make_store()
        expected = InternPool().serialize_document(
            db.current().document("c", "d1"))
        kind, value = self.stream_once(db)
        assert (kind, value) == ("ok", expected)
        plan = FaultPlan.random(seed, sites=("agateway:stream",),
                                rate=0.25, horizon=40)
        kind, value = self.stream_once(db, faults=FaultInjector(plan))
        if kind == "ok":
            assert value == expected        # full fidelity
        else:
            error_type = getattr(
                __import__("repro.core.errors", fromlist=[value]),
                value)
            assert issubclass(error_type, TransportError)

    def test_stream_fault_releases_the_pinned_epoch(self):
        db = self.make_store()
        plan = FaultPlan()
        plan.add("agateway:stream", 1, FaultKind.CRASH)
        kind, value = self.stream_once(db,
                                       faults=FaultInjector(plan),
                                       chunk_size=16)
        assert (kind, value) == ("err", "ReplicaUnavailable")
        assert db.epochs.pins(db.epochs.current_epoch()) == 0


def _noop_engine():
    from repro.core.evaluator import PolicyEvaluator
    from repro.core.policy import PolicyBase
    return PolicyEvaluator(PolicyBase())

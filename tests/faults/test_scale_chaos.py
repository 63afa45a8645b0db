"""Chaos battery for the gateway over the sharded compiled router.

The fail-closed invariant, over ≥50 seeds: every response from the
gateway over an :class:`EpochalShardRouter` under a bounded fault plan
is either byte-identical to the fault-free run's response for the same
request, or a *typed* :class:`TransportError` — never a silently wrong
grant.  Sites are ``gateway:shard<i>`` (``fault_site="gateway"``).

``auto_dispatch=False`` keeps each run deterministic: requests drain on
the caller's task in submission order, so the injector's per-site step
counters advance identically for identical (seed, plan) pairs.
"""

import asyncio
import json
import random

import pytest

from repro.core.errors import (
    ReplicaUnavailable,
    StaleRead,
    TransportError,
)
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gateway.engine import EpochalShardRouter
from repro.scale.gateway import Request

from tests.gateway.driver import drive, sync_gateway
from tests.scale.workloads import random_policies, random_requests

SHARDS = 4
SITES = tuple(f"gateway:shard{i}" for i in range(SHARDS))
SEEDS = range(60)


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
    """One deterministic gateway run → per-request outcome list.

    The engine is shared between the oracle and the chaotic run:
    decisions are read-only, and policy ids (which the byte oracle
    serializes) are only comparable within one engine build.
    """
    futures = drive(sync_gateway(engine, batch_size=batch_size,
                                 faults=faults, fault_site="gateway"),
                    requests)
    outcomes = []
    for future in futures:
        error = future.exception()
        if error is None:
            outcomes.append(("ok", decision_bytes(future.result())))
        else:
            outcomes.append(("err", type(error).__name__))
    return outcomes


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
        """Stronger than fail-closed: every OK answer under chaos is the
        oracle answer — a fault can suppress a response, not alter it."""
        engine, requests = build_engine(seed), workload(seed)
        oracle = dict(enumerate(run(engine, requests)))
        plan = FaultPlan.random(seed, sites=SITES, rate=0.6,
                                horizon=50)
        chaotic = run(engine, requests, faults=FaultInjector(plan))
        survivors = [i for i, (kind, _) in enumerate(chaotic)
                     if kind == "ok"]
        for index in survivors:
            assert chaotic[index] == oracle[index]


class TestTargetedFaults:
    def test_crashed_shard_fails_typed_while_others_answer(self):
        seed = 5
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        shard_of = [engine.shard_for_path(r[2]) for r in requests]
        crashed = max(set(shard_of), key=shard_of.count)
        delayed = next(s for s in sorted(set(shard_of))
                       if s != crashed)
        plan = FaultPlan()
        for op_index in range(40):
            plan.add(f"gateway:shard{crashed}", op_index,
                     FaultKind.CRASH)
            plan.add(f"gateway:shard{delayed}", op_index,
                     FaultKind.DELAY)
        injector = FaultInjector(plan)
        chaotic = run(engine, requests, faults=injector)
        for index, (kind, value) in enumerate(chaotic):
            if shard_of[index] == crashed:
                assert (kind, value) == \
                    ("err", ReplicaUnavailable.__name__)
            else:
                # DELAY charges the fault clock only; answers —
                # including the delayed shard's — stay byte-identical.
                assert (kind, value) == oracle[index]
        assert injector.clock.now() > 0

    def test_stale_read_surfaces_as_typed_error(self):
        seed = 11
        engine, requests = build_engine(seed), workload(seed)
        plan = FaultPlan()
        plan.add("gateway:shard0", 0, FaultKind.STALE_READ)
        plan.add("gateway:shard1", 0, FaultKind.STALE_READ)
        plan.add("gateway:shard2", 0, FaultKind.STALE_READ)
        plan.add("gateway:shard3", 0, FaultKind.STALE_READ)
        chaotic = run(engine, requests, faults=FaultInjector(plan),
                      batch_size=100)
        assert {value for kind, value in chaotic if kind == "err"} \
            == {StaleRead.__name__}
        # One big batch → exactly one injector step per shard, so every
        # request failed with the stale-read error.
        assert all(kind == "err" for kind, _ in chaotic)


class TestDispatcherChaosSmoke:
    def test_dispatcher_task_stays_fail_closed(self):
        """The real dispatcher task under faults."""
        seed = 2
        engine, requests = build_engine(seed), workload(seed)
        oracle = {value for kind, value in run(engine, requests)
                  if kind == "ok"}
        plan = FaultPlan.random(seed, sites=SITES, rate=0.3,
                                horizon=200)

        async def scenario():
            gateway = sync_gateway(engine, batch_size=8,
                                   faults=FaultInjector(plan),
                                   fault_site="gateway",
                                   auto_dispatch=True)
            futures = [gateway.submit_nowait("t", Request(*r))
                       for r in requests]
            await gateway.close()
            return futures

        for future in asyncio.run(scenario()):
            error = future.exception()
            if error is not None:
                assert isinstance(error, TransportError)
            else:
                assert decision_bytes(future.result()) in oracle

"""A shard outage partway through a run, and fault plans at any batch size.

The fail-closed contract of ``test_async_gateway_chaos.py`` under two
more shapes of failure on :class:`AsyncRequestGateway`:

* **outage** — the first requests drain fault-free, then one shard goes
  down for the rest of the run (a standing CRASH at its fault site).
  Every earlier response is byte-identical to the fault-free run's;
  afterwards the down shard's requests fail :class:`ReplicaUnavailable`
  and every other shard's still answer byte-identically: an outage is
  confined to its shard, across batch boundaries and tenants;
* **batch size** — a fault fails a whole shard group, and the tick's
  ``batch_size`` decides how big a group is.  At one request per batch
  and at one batch for the whole workload, every response is still the
  fault-free response or a *typed* :class:`TransportError`.
"""

import asyncio
import random

import pytest

from repro.core.errors import TransportError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gateway import AsyncRequestGateway, TenantConfig
from repro.scale.gateway import Request

from tests.faults.test_async_gateway_chaos import (
    SITES,
    TENANTS,
    build_engine,
    decision_bytes,
    run,
    workload,
)

SEEDS = range(60)
#: More steps than any run here takes at one shard's fault site.
HORIZON = 64


def outcome(future) -> tuple[str, object]:
    error = future.exception()
    if error is None:
        return ("ok", decision_bytes(future.result()))
    return ("err", type(error).__name__)


def run_with_outage(engine, requests, down_after: int, victim: int,
                    batch_size: int = 8):
    """Drain the first *down_after* requests fault-free, take shard
    *victim* down, drain the rest → (per-request outcomes, failed)."""

    async def scenario():
        plan = FaultPlan()
        gateway = AsyncRequestGateway(
            engine, batch_size=batch_size, faults=FaultInjector(plan),
            auto_dispatch=False,
            default_tenant=TenantConfig(rate=1e9, burst=1e9))
        futures = []

        def submit(part):
            for index, request in enumerate(part, start=len(futures)):
                futures.append(gateway.submit_nowait(
                    TENANTS[index % len(TENANTS)], Request(*request)))

        submit(requests[:down_after])
        await gateway.process_pending()
        # The op indices the site already stepped are never looked up
        # again, so the CRASH stands from its next step on.
        for op_index in range(HORIZON):
            plan.add(f"agateway:shard{victim}", op_index, FaultKind.CRASH)
        submit(requests[down_after:])
        await gateway.process_pending()
        return [outcome(future) for future in futures], gateway.stats.failed

    return asyncio.run(scenario())


def assert_outage_confined(engine, requests, chaotic, failed, oracle,
                           down_after: int, victim: int) -> None:
    victims = 0
    for index, (got, expected) in enumerate(zip(chaotic, oracle)):
        if (index >= down_after
                and engine.shard_for_path(requests[index][2]) == victim):
            assert got == ("err", "ReplicaUnavailable")
            victims += 1
        else:
            assert got == expected
    assert failed == victims > 0


def outage_point(engine, requests, seed: int) -> tuple[int, int]:
    """Where the outage starts, and a shard that still has requests
    to fail after it."""
    rng = random.Random(seed + 500)
    down_after = rng.randrange(5, 30)
    later = sorted({engine.shard_for_path(request[2])
                    for request in requests[down_after:]})
    return down_after, rng.choice(later)


class TestShardOutage:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_before_and_typed_after(self, seed):
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        assert all(kind == "ok" for kind, _ in oracle)
        down_after, victim = outage_point(engine, requests, seed)
        chaotic, failed = run_with_outage(engine, requests, down_after,
                                          victim)
        assert_outage_confined(engine, requests, chaotic, failed, oracle,
                               down_after, victim)

    @pytest.mark.parametrize("seed", [0, 13, 29, 47])
    def test_same_seed_same_outcomes(self, seed):
        engine, requests = build_engine(seed), workload(seed)
        down_after, victim = outage_point(engine, requests, seed)
        assert (run_with_outage(engine, requests, down_after, victim)
                == run_with_outage(engine, requests, down_after, victim))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_outage_is_confined_at_any_batch_size(self, batch_size, seed):
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        down_after, victim = outage_point(engine, requests, seed)
        chaotic, failed = run_with_outage(engine, requests, down_after,
                                          victim, batch_size=batch_size)
        assert_outage_confined(engine, requests, chaotic, failed, oracle,
                               down_after, victim)


class TestFaultPlansAtAnyBatchSize:
    @pytest.mark.parametrize("seed", range(0, 60, 5))
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_byte_identical_or_typed_error(self, batch_size, seed):
        engine, requests = build_engine(seed), workload(seed)
        oracle = run(engine, requests)
        plan = FaultPlan.random(seed, sites=SITES, rate=0.3, horizon=50)
        chaotic = run(engine, requests, faults=FaultInjector(plan),
                      batch_size=batch_size)
        for (kind, value), (_, expected) in zip(chaotic, oracle):
            if kind == "ok":
                assert value == expected
            else:
                error_type = getattr(
                    __import__("repro.core.errors", fromlist=[value]),
                    value)
                assert issubclass(error_type, TransportError)

"""The tick's batch size decides when a request is decided, never how.

``batch_size`` bounds how many requests one tick takes, and so how the
deficit-round-robin scheduler cuts a multi-tenant backlog into shard
groups.  None of that may reach a decision, and neither may the shard
count: at one request per tick, at a few, and at one tick for the whole
backlog, over one, four or eight shards, every response is
byte-identical to the cache-free interpreter deciding that request
alone.  A batch admitted as one unit resolves to the same decisions, in
submission order.
"""

import asyncio
import random

import pytest

from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.gateway import (
    AsyncRequestGateway,
    EpochalShardRouter,
    TenantConfig,
)
from repro.scale.gateway import Request

from tests.faults.test_async_gateway_chaos import (
    TENANTS,
    build_engine,
    decision_bytes,
    workload,
)
from tests.scale.workloads import random_policies

WIDE_OPEN = TenantConfig(rate=1e9, burst=1e9)


def reference(engine, requests) -> list[bytes]:
    """Each request decided alone, outside any gateway."""
    return [decision_bytes(engine.decide(*request))
            for request in requests]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("shards", [1, 4, 8])
@pytest.mark.parametrize("batch_size", [1, 5, 64])
def test_decisions_do_not_depend_on_batch_size_or_shard_count(
        batch_size, shards, seed):
    policies = random_policies(random.Random(seed), 25)
    engine = EpochalShardRouter.from_policies(policies, shard_count=shards)
    requests = workload(seed)

    async def scenario():
        gateway = AsyncRequestGateway(
            engine, batch_size=batch_size, auto_dispatch=False,
            default_tenant=WIDE_OPEN)
        futures = [
            gateway.submit_nowait(TENANTS[index % len(TENANTS)],
                                  Request(*request))
            for index, request in enumerate(requests)]
        processed = await gateway.process_pending()
        assert processed == len(requests)
        assert gateway.stats.batches == -(-len(requests) // batch_size)
        return [decision_bytes(future.result()) for future in futures]

    interpreter = PolicyEvaluator(PolicyBase(policies))
    assert asyncio.run(scenario()) == reference(interpreter, requests)


@pytest.mark.parametrize("seed", range(10))
def test_a_batch_admitted_as_one_unit_decides_like_single_requests(seed):
    engine = build_engine(seed)
    requests = random.Random(seed).sample(workload(seed), 16)

    async def scenario():
        gateway = AsyncRequestGateway(
            engine, batch_size=8, auto_dispatch=False,
            default_tenant=WIDE_OPEN)
        gathered = gateway.submit_batch_nowait(
            "t", [Request(*request) for request in requests])
        assert gateway.stats.admitted == len(requests)
        await gateway.process_pending()
        return [decision_bytes(decision) for decision in await gathered]

    assert asyncio.run(scenario()) == reference(engine, requests)


"""The gateway over both Authorizer implementations — the sharded
compiled :class:`EpochalShardRouter` and the interpreter
:class:`PolicyEvaluator`: admission control, batching, ordering,
lifecycle.
"""

import asyncio
import random

import pytest

from repro.core.errors import AdmissionRejected, ConfigurationError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.gateway.engine import EpochalShardRouter
from repro.scale.gateway import Request

from tests.gateway.driver import drive, sync_gateway
from tests.scale.workloads import random_policies, random_requests


def build_engine(seed=5, shards=4):
    rng = random.Random(seed)
    policies = random_policies(rng, 30)
    return policies, EpochalShardRouter.from_policies(policies,
                                                      shard_count=shards)


def hard_limit(limit):
    """Watermarks at the limit: only the hard bound refuses."""
    return dict(queue_limit=limit, high_watermark=limit,
                low_watermark=limit)


class TestAdmission:
    def test_queue_limit_sheds_load_with_typed_error(self):
        _, engine = build_engine()
        gateway = sync_gateway(engine, **hard_limit(5))
        requests = random_requests(random.Random(1), 10)
        entries = drive(gateway, requests)
        rejected = [e for e in entries if isinstance(e, AdmissionRejected)]
        assert len(rejected) == 5 and len(entries) - len(rejected) == 5
        stats = gateway.stats.snapshot()
        assert stats["admitted"] == 5 and stats["rejected"] == 5

    def test_rejected_request_was_never_evaluated(self):
        _, engine = build_engine()
        gateway = sync_gateway(engine, **hard_limit(1))
        entries = drive(gateway, random_requests(random.Random(2), 3))
        assert [isinstance(e, AdmissionRejected) for e in entries] == [
            False, True, True]
        assert gateway.stats.snapshot()["completed"] == 1

    def test_submit_after_close_rejected(self):
        _, engine = build_engine()
        gateway = sync_gateway(engine)
        asyncio.run(gateway.close())
        entries = drive(gateway, random_requests(random.Random(3), 1))
        assert isinstance(entries[0], AdmissionRejected)


class TestSynchronousPipeline:
    def test_results_match_serial_evaluation(self):
        policies, engine = build_engine(seed=7)
        mono = PolicyEvaluator(PolicyBase(policies))
        requests = random_requests(random.Random(7), 60)
        gateway = sync_gateway(engine, batch_size=16)
        futures = drive(gateway, requests)
        assert gateway.stats.snapshot()["completed"] == len(requests)
        assert [f.result() for f in futures] == \
            [mono.decide(*r) for r in requests]

    def test_interpreter_works_too(self):
        policies, _ = build_engine(seed=8)
        mono = PolicyEvaluator(PolicyBase(policies))
        interpreter = PolicyEvaluator(PolicyBase(policies))
        requests = random_requests(random.Random(8), 30)
        futures = drive(sync_gateway(interpreter), requests)
        assert [f.result() for f in futures] == \
            [mono.decide(*r) for r in requests]

    def test_stage_counters(self):
        _, engine = build_engine(seed=9)
        gateway = sync_gateway(engine, batch_size=8)
        drive(gateway, random_requests(random.Random(9), 40))
        stats = gateway.stats.snapshot()
        assert stats["admitted"] == stats["completed"] == 40
        assert stats["batches"] == 5
        assert stats["failed"] == 0
        assert stats["queue_wait_s"] >= 0
        assert stats["evaluate_s"] > 0

    def test_validation_of_parameters(self):
        _, engine = build_engine()
        with pytest.raises(ConfigurationError):
            sync_gateway(engine, queue_limit=0)
        with pytest.raises(ConfigurationError):
            sync_gateway(engine, batch_size=0)


class TestDispatcherPipeline:
    """The real dispatcher task (``auto_dispatch=True``)."""

    def test_dispatcher_produces_serial_answers(self):
        policies, engine = build_engine(seed=11, shards=8)
        mono = PolicyEvaluator(PolicyBase(policies))
        requests = random_requests(random.Random(11), 120)

        async def scenario():
            async with sync_gateway(engine, batch_size=32,
                                    auto_dispatch=True) as gateway:
                return await asyncio.wait_for(asyncio.gather(*[
                    gateway.submit("t", Request(*r))
                    for r in requests]), timeout=30)

        assert asyncio.run(scenario()) == \
            [mono.decide(*r) for r in requests]

    def test_close_drains_admitted_work(self):
        _, engine = build_engine(seed=12)

        async def scenario():
            gateway = sync_gateway(engine, batch_size=8,
                                   auto_dispatch=True)
            futures = [gateway.submit_nowait("t", Request(*r))
                       for r in random_requests(random.Random(12), 30)]
            await gateway.close()
            assert all(f.done() for f in futures)
            return gateway.stats.snapshot()

        assert asyncio.run(scenario())["completed"] == 30

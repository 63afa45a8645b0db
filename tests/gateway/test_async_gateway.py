"""The asyncio gateway: equivalence, fairness, backpressure, lifecycle.

Deterministic tests drive ``auto_dispatch=False`` gateways with
``process_pending``; the event-loop tests use the real dispatcher.
"""

import asyncio
import random

import pytest

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    Overloaded,
)
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.gateway import (
    AsyncRequestGateway,
    EpochalShardRouter,
    ManualClock,
    TenantConfig,
)
from repro.scale.gateway import Request
from tests.scale.workloads import random_policies, random_requests


def run(coro):
    return asyncio.run(coro)


def build(seed: int, count: int = 30):
    rng = random.Random(seed)
    policies = random_policies(rng, count)
    requests = random_requests(random.Random(seed + 1), 50)
    return policies, requests


class TestDecisionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_serial_evaluator(self, seed):
        policies, requests = build(seed)
        router = EpochalShardRouter.from_policies(policies,
                                                  shard_count=4)
        serial = PolicyEvaluator(PolicyBase(policies))

        async def scenario():
            gateway = AsyncRequestGateway(router, auto_dispatch=False)
            futures = [gateway.submit_nowait("t", Request(*r))
                       for r in requests]
            await gateway.process_pending()
            return [f.result() for f in futures]

        decisions = run(scenario())
        for decision, request in zip(decisions, requests):
            expected = serial.decide(*request)
            assert decision.granted == expected.granted
            assert decision.reason == expected.reason

    def test_auto_dispatch_resolves_awaited_submissions(self):
        policies, requests = build(11)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            async with AsyncRequestGateway(router) as gateway:
                return await asyncio.gather(
                    *[gateway.submit("t", Request(*r))
                      for r in requests])

        decisions = run(scenario())
        assert len(decisions) == len(requests)
        assert all(hasattr(d, "granted") for d in decisions)

    def test_bulk_load_is_one_publication(self):
        policies, _ = build(2, count=40)
        router = EpochalShardRouter.from_policies(policies,
                                                  shard_count=4)
        # Construction publishes the empty tables as epoch 0.
        assert router.epoch == 1
        assert len(router) == 40


class TestAdmissionIntegration:
    def test_bucket_exhaustion_sheds_typed_overloaded(self):
        policies, requests = build(3)
        router = EpochalShardRouter.from_policies(policies)
        clock = ManualClock()

        async def scenario():
            gateway = AsyncRequestGateway(
                router, clock=clock, auto_dispatch=False,
                default_tenant=TenantConfig(rate=10.0, burst=3.0))
            admitted, shed = 0, []
            for request in requests[:10]:
                try:
                    gateway.submit_nowait("noisy", Request(*request))
                    admitted += 1
                except Overloaded as exc:
                    shed.append(exc)
            await gateway.process_pending()
            return admitted, shed, gateway.stats.snapshot()

        admitted, shed, stats = run(scenario())
        assert admitted == 3                  # the burst
        assert len(shed) == 7
        assert all(e.reason == "bucket" and e.retry_after > 0
                   for e in shed)
        assert stats["shed"] == 7 and stats["admitted"] == 3

    def test_hard_queue_limit_rejects(self):
        policies, _ = build(4)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(
                router, queue_limit=5, high_watermark=5,
                low_watermark=5, auto_dispatch=False,
                default_tenant=TenantConfig(rate=1e9, burst=1e9))
            request = Request(*random_requests(random.Random(0), 1)[0])
            for _ in range(5):
                gateway.submit_nowait("t", request)
            with pytest.raises(AdmissionRejected):
                gateway.submit_nowait("t", request)
            await gateway.process_pending()

        run(scenario())

    def test_batch_admission_respects_the_queue_bound(self):
        policies, requests = build(4)
        serial = PolicyEvaluator(PolicyBase(policies))
        options = dict(queue_limit=4, high_watermark=4, low_watermark=4,
                       auto_dispatch=False,
                       default_tenant=TenantConfig(rate=1e9, burst=1e9))

        async def scenario():
            gateway = AsyncRequestGateway(
                EpochalShardRouter.from_policies(policies), **options)
            async with gateway:
                batch = [Request(*r) for r in (requests * 2)[:64]]
                with pytest.raises(AdmissionRejected):
                    gateway.submit_batch_nowait("t", batch)
                assert gateway.pending() == 0       # nothing enqueued
                assert gateway.stats.rejected == 1
                # A batch that fits is one admission, decided in order.
                gathered = gateway.submit_batch_nowait("t", batch[:4])
                assert gateway.pending() == 4
                await gateway.process_pending()
                return await gathered

        decisions = run(scenario())
        assert [d.granted for d in decisions] == [
            serial.decide(*r).granted for r in requests[:4]]

    def test_watermark_sheds_low_priority_tenant_first(self):
        policies, _ = build(5)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(
                router, queue_limit=100, high_watermark=20,
                low_watermark=10, auto_dispatch=False)
            gateway.register("bulk", TenantConfig(
                priority=0, rate=1e9, burst=1e9))
            gateway.register("interactive", TenantConfig(
                priority=5, rate=1e9, burst=1e9))
            request = Request(*random_requests(random.Random(0), 1)[0])
            shed_at = None
            for index in range(40):
                try:
                    gateway.submit_nowait("bulk", request)
                except Overloaded as exc:
                    shed_at = index
                    assert exc.reason == "watermark"
                    break
            assert shed_at is not None and shed_at >= 20
            # The high-priority tenant is still served at this depth.
            gateway.submit_nowait("interactive", request)
            await gateway.process_pending()

        run(scenario())

    def test_unknown_tenant_without_default_is_an_error(self):
        policies, _ = build(6)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(router, default_tenant=None,
                                          auto_dispatch=False)
            request = Request(*random_requests(random.Random(0), 1)[0])
            with pytest.raises(ConfigurationError):
                gateway.submit_nowait("ghost", request)

        run(scenario())


class TestFairness:
    def test_noisy_tenant_does_not_starve_quiet_one(self):
        """With DRR the quiet tenant's request is decided in the first
        batch even when the noisy tenant queued 10x batch_size ahead
        of it."""
        policies, requests = build(8)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(
                router, batch_size=16, auto_dispatch=False,
                default_tenant=TenantConfig(rate=1e9, burst=1e9,
                                            quantum=8))
            order = []
            for index, request in enumerate(requests * 4):
                future = gateway.submit_nowait("noisy", Request(*request))
                future.add_done_callback(
                    lambda _f, i=index: order.append(("noisy", i)))
            quiet_future = gateway.submit_nowait(
                "quiet", Request(*requests[0]))
            quiet_future.add_done_callback(
                lambda _f: order.append(("quiet", 0)))
            await gateway.process_pending()
            return order

        order = run(scenario())
        quiet_position = order.index(("quiet", 0))
        assert quiet_position < 16      # inside the first batch

    def test_lifecycle_close_drains_by_default(self):
        policies, requests = build(9)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(router, auto_dispatch=False)
            futures = [gateway.submit_nowait("t", Request(*r))
                       for r in requests[:10]]
            await gateway.close()
            assert all(f.exception() is None for f in futures)
            with pytest.raises(AdmissionRejected):
                gateway.submit_nowait("t", Request(*requests[0]))

        run(scenario())

    def test_close_without_drain_fails_pending_typed(self):
        policies, requests = build(10)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(router, auto_dispatch=False)
            futures = [gateway.submit_nowait("t", Request(*r))
                       for r in requests[:5]]
            await gateway.close(drain=False)
            assert all(isinstance(f.exception(), AdmissionRejected)
                       for f in futures)

        run(scenario())


class TestStatsIntegration:
    def test_latency_and_stage_counters_populated(self):
        policies, requests = build(12)
        router = EpochalShardRouter.from_policies(policies)

        async def scenario():
            gateway = AsyncRequestGateway(router, auto_dispatch=False)
            for request in requests:
                gateway.submit_nowait("t", Request(*request))
            await gateway.process_pending()
            return gateway.stats.snapshot()

        stats = run(scenario())
        assert stats["admitted"] == len(requests)
        assert stats["completed"] == len(requests)
        assert stats["latency_count"] == len(requests)
        assert stats["latency_p99_s"] >= stats["latency_p50_s"] > 0
        assert stats["batches"] >= 1

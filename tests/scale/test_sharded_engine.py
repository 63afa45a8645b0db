"""Sharding-equivalence property: sharded router == monolithic evaluator.

Routing literal-head policies to the ring owner of their head and
broadcasting glob-head policies to every shard must leave each request's
candidate set — and therefore its Decision — exactly what the
monolithic policy base would produce.
"""

import random

import pytest

from repro.core.evaluator import (
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.policy import PolicyBase, grant
from repro.gateway.engine import EpochalShardRouter, is_broadcast

from tests.scale.workloads import random_policies, random_requests


def build_sharded(policies, shard_count, **kwargs):
    router = EpochalShardRouter(shard_count=shard_count, **kwargs)
    for policy in policies:
        router.add(policy)
    return router


class TestShardingEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 5, 8])
    def test_decide_matches_monolithic(self, shard_count):
        for seed in range(5):
            rng = random.Random(seed)
            policies = random_policies(rng, 40)
            mono = PolicyEvaluator(PolicyBase(policies))
            sharded = EpochalShardRouter.from_policies(
                policies, shard_count=shard_count)
            for request in random_requests(random.Random(seed), 80):
                assert sharded.decide(*request) == mono.decide(*request)

    @pytest.mark.parametrize("resolution", list(ConflictResolution))
    def test_resolutions_survive_sharding(self, resolution):
        rng = random.Random(42)
        policies = random_policies(rng, 50)
        mono = PolicyEvaluator(PolicyBase(policies), resolution,
                               DefaultDecision.OPEN)
        sharded = EpochalShardRouter.from_policies(
            policies, resolution=resolution, default=DefaultDecision.OPEN)
        for request in random_requests(random.Random(43), 60):
            assert sharded.decide(*request) == mono.decide(*request)

    def test_batch_matches_monolithic_serial(self):
        for seed in range(8):
            rng = random.Random(seed)
            policies = random_policies(rng, 35)
            mono = PolicyEvaluator(PolicyBase(policies))
            sharded = EpochalShardRouter.from_policies(policies)
            requests = random_requests(random.Random(seed + 500), 100)
            assert sharded.decide_batch(requests) == \
                [mono.decide(*r) for r in requests], f"seed {seed}"

    def test_batch_results_align_with_input_order(self):
        rng = random.Random(9)
        policies = random_policies(rng, 30)
        sharded = EpochalShardRouter.from_policies(policies)
        requests = random_requests(random.Random(9), 50)
        decisions = sharded.decide_batch(requests)
        assert len(decisions) == len(requests)
        singles = [sharded.decide(*r) for r in requests]
        assert decisions == singles


class TestPolicyPlacement:
    def test_broadcast_policies_live_on_every_shard(self):
        router = EpochalShardRouter(shard_count=4)
        glob_policy = grant(None, resource="**")
        literal_policy = grant(None, resource="hospital/records/**")
        assert is_broadcast(glob_policy)
        assert not is_broadcast(literal_policy)
        assert router.shards_for_policy(glob_policy) == (0, 1, 2, 3)
        assert len(router.shards_for_policy(literal_policy)) == 1

    def test_policies_deduplicates_broadcast(self):
        router = EpochalShardRouter(shard_count=4)
        router.add(grant(None, resource="**"))
        router.add(grant(None, resource="hospital/**"))
        assert len(router) == 2

    def test_remove_routes_like_add(self):
        rng = random.Random(21)
        policies = random_policies(rng, 30)
        router = build_sharded(policies, 4)
        for policy in policies:
            router.remove(policy)
        assert len(router) == 0
        for shard in router.publication:
            assert shard.policies == ()

    def test_literal_add_republishes_only_its_shard(self):
        router = EpochalShardRouter(shard_count=4)
        before = router.publication
        policy = grant(None, resource="hospital/records/**")
        (shard,) = router.shards_for_policy(policy)
        router.add(policy)
        after = router.publication
        assert router.epoch == 1
        assert after[shard].policies == (policy,)
        assert all(after[i] is before[i] for i in range(4) if i != shard)

    def test_broadcast_add_is_one_publication_on_every_shard(self):
        router = EpochalShardRouter(shard_count=4)
        policy = grant(None, resource="**")
        router.add(policy)
        assert router.epoch == 1
        assert all(shard.policies == (policy,)
                   for shard in router.publication)

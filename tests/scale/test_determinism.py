"""Determinism of the sharded policy router: decisions must not depend
on shard count, insertion order, or dict/set iteration order.

The router's listings sort by a canonical key before returning, so it
answers byte-for-byte like the monolithic interpreter no matter how the
policies were spread or in what order they arrived.  (The stores'
insertion-order determinism is checked in
``tests/wal/test_durable_equivalence.py``.)
"""

import random

import pytest

from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import random_policies, random_requests

SHARD_COUNTS = (1, 2, 3, 5, 8)


class TestEngineInsertionOrder:
    @pytest.mark.parametrize("shard_count", SHARD_COUNTS)
    def test_policy_insertion_order_is_irrelevant(self, shard_count):
        rng = random.Random(31)
        policies = random_policies(rng, 40)
        shuffled = list(policies)
        random.Random(32).shuffle(shuffled)
        ordered = EpochalShardRouter(shard_count=shard_count)
        scrambled = EpochalShardRouter(shard_count=shard_count)
        for policy in policies:
            ordered.add(policy)
        for policy in shuffled:
            scrambled.add(policy)
        requests = random_requests(random.Random(33), 80)
        assert ordered.decide_batch(requests) == \
            scrambled.decide_batch(requests)

    def test_shard_count_is_irrelevant(self):
        rng = random.Random(34)
        policies = random_policies(rng, 40)
        mono = PolicyEvaluator(PolicyBase(policies))
        requests = random_requests(random.Random(35), 60)
        expected = [mono.decide(*r) for r in requests]
        for shard_count in SHARD_COUNTS:
            engine = EpochalShardRouter(shard_count=shard_count)
            for policy in policies:
                engine.add(policy)
            assert engine.decide_batch(requests) == expected

    def test_policies_listing_is_sorted_and_deduped(self):
        rng = random.Random(36)
        policies = random_policies(rng, 30)
        engine = EpochalShardRouter(shard_count=4)
        for policy in reversed(policies):
            engine.add(policy)
        listed = list(engine.policies())
        assert listed == sorted(listed, key=lambda p: p.policy_id)
        assert len(listed) == len(policies)


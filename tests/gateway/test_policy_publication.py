"""The router's one policy publication.

Every change (``add``, ``remove``, ``load``) compiles the shards it
routes to and publishes once; untouched shards keep their table object;
a reader holding an older publication keeps deciding against it; and a
shard's table depends only on its policy set, not on the order of the
changes that reached it.
"""

import random

import pytest

from repro.core.credentials import anyone, has_role
from repro.core.errors import ConfigurationError
from repro.core.evaluator import (
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.subjects import Role, Subject
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import random_policies

DOCTOR = Subject("dr", roles={Role("doctor")})
NURSE = Subject("rn", roles={Role("nurse")})
VISITOR = Subject("vis")

POLICIES = [
    grant(anyone(), Action.READ, "hospital/**"),
    deny(anyone(), Action.READ, "hospital/records/ssn"),
    grant(has_role("doctor"), Action.WRITE, "hospital/records/**"),
    deny(has_role("nurse"), Action.WRITE, "hospital/records/billing"),
    grant(anyone(), Action.READ, "*"),
]

REQUESTS = [
    (subject, action, path)
    for subject in (DOCTOR, NURSE, VISITOR)
    for action in (Action.READ, Action.WRITE)
    for path in ("hospital/records/ssn", "hospital/records/billing",
                 "hospital/lobby", "pharmacy", "pharmacy/stock")
]


def tables(router):
    return [shard.table for shard in router.publication]


def literal_heads_on_distinct_shards(router, count):
    """*count* literal heads owned by *count* different shards."""
    chosen = {}
    index = 0
    while len(chosen) < count:
        head = f"zone{index}"
        chosen.setdefault(router.shard_for_path(head), head)
        index += 1
    return list(chosen.values())


class TestDecisions:
    @pytest.mark.parametrize("shard_count", [1, 3])
    @pytest.mark.parametrize("resolution", list(ConflictResolution))
    @pytest.mark.parametrize("default", list(DefaultDecision))
    def test_decisions_match_live_evaluator(self, shard_count, resolution,
                                           default):
        live = PolicyEvaluator(PolicyBase(POLICIES), resolution=resolution,
                               default=default)
        router = EpochalShardRouter.from_policies(
            POLICIES, shard_count=shard_count, resolution=resolution,
            default=default)
        for subject, action, path in REQUESTS:
            assert router.decide(subject, action, path) == \
                live.decide(subject, action, path)

    def test_shard_engine_batch_matches_serial_decides(self):
        router = EpochalShardRouter.from_policies(POLICIES, shard_count=3)
        for shard in range(3):
            requests = [r for r in REQUESTS
                        if router.shard_for_path(r[2]) == shard]
            assert router.engine(shard).decide_batch(requests) == \
                [router.decide(*r) for r in requests]

    def test_policy_remove_revokes(self):
        denial = deny(anyone(), Action.READ, "hospital/records/ssn")
        router = EpochalShardRouter.from_policies(
            [grant(anyone(), Action.READ, "hospital/**"), denial])
        assert not router.decide(
            NURSE, Action.READ, "hospital/records/ssn").granted
        router.remove(denial)
        assert router.decide(
            NURSE, Action.READ, "hospital/records/ssn").granted

    def test_per_table_decision_cache_is_pure(self):
        """A table never changes, so a repeat decision is answered by
        the cell it already filled; a change publishes a *new* table
        rather than invalidating the old one."""
        router = EpochalShardRouter.from_policies(POLICIES, shard_count=1)
        table = router.publication[0].table
        first = router.decide(DOCTOR, Action.READ, "hospital/lobby")
        filled = table.stats().cells_filled
        assert router.decide(DOCTOR, Action.READ, "hospital/lobby") == first
        assert table.stats().cells_filled == filled
        router.add(grant(anyone(), Action.WRITE, "x"))
        assert router.publication[0].table is not table
        assert table.decide(DOCTOR, Action.READ, "hospital/lobby") == first
        assert table.stats().cells_filled == filled

    def test_captured_publication_decides_against_old_policies(self):
        router = EpochalShardRouter.from_policies(POLICIES[:1])
        captured = router.publication
        engine = router.engine(router.shard_for_path("hospital/x"))
        router.add(deny(anyone(), Action.READ, "hospital/x"))
        shard = captured[router.shard_for_path("hospital/x")]
        assert shard.table.decide(VISITOR, Action.READ,
                                  "hospital/x").granted
        assert shard.policies == tuple(POLICIES[:1])
        assert not router.decide(VISITOR, Action.READ,
                                 "hospital/x").granted
        # The shard engine is the same object, reading the new value.
        assert router.engine(engine.shard) is engine
        assert not engine.decide_batch(
            [(VISITOR, Action.READ, "hospital/x")])[0].granted


class TestOnePublication:
    def test_broadcast_add_and_remove_each_advance_epoch_once(self):
        router = EpochalShardRouter(shard_count=4)
        policy = grant(anyone(), Action.READ, "*/records/**")
        router.add(policy)
        assert router.epoch == 1
        assert all(shard.policies == (policy,)
                   for shard in router.publication)
        router.remove(policy)
        assert router.epoch == 2
        assert all(shard.policies == () for shard in router.publication)

    def test_failed_remove_publishes_nothing(self):
        router = EpochalShardRouter.from_policies(POLICIES, shard_count=4)
        before, epoch = router.publication, router.epoch
        for absent in (grant(anyone(), Action.READ, "**"),
                       grant(anyone(), Action.READ, "hospital/**")):
            with pytest.raises(ConfigurationError):
                router.remove(absent)
        assert router.epoch == epoch
        assert router.publication is before
        assert all(now.table is then.table for now, then
                   in zip(router.publication, before))

    def test_literal_add_keeps_every_other_table_object(self):
        router = EpochalShardRouter(shard_count=4)
        heads = literal_heads_on_distinct_shards(router, 4)
        router.load(grant(anyone(), Action.READ, f"{head}/**")
                    for head in heads)
        before = tables(router)
        policy = grant(anyone(), Action.WRITE, f"{heads[0]}/x")
        (target,) = router.shards_for_policy(policy)
        router.add(policy)
        after = tables(router)
        assert after[target] is not before[target]
        assert all(after[i] is before[i] for i in range(4) if i != target)

    def test_load_compiles_each_touched_shard_once(self):
        router = EpochalShardRouter(shard_count=4)
        heads = literal_heads_on_distinct_shards(router, 2)
        before = tables(router)
        router.load([grant(anyone(), Action.READ, f"{heads[0]}/a"),
                     grant(anyone(), Action.READ, f"{heads[0]}/b"),
                     grant(anyone(), Action.READ, f"{heads[1]}/c")])
        assert router.epoch == 1
        touched = {router.shard_for_path(head) for head in heads}
        after = tables(router)
        for shard in range(4):
            assert (after[shard] is before[shard]) is (shard not in touched)

    @pytest.mark.parametrize("seed", range(6))
    def test_digests_depend_only_on_the_policy_set(self, seed):
        rng = random.Random(seed)
        policies = random_policies(rng, 24)
        extra = random_policies(rng, 8)
        router = EpochalShardRouter(shard_count=3)
        pending = policies + extra
        rng.shuffle(pending)
        for policy in pending:
            router.add(policy)
        for policy in extra:
            router.remove(policy)
        final = EpochalShardRouter.from_policies(policies, shard_count=3)
        assert [t.digest for t in tables(router)] == \
            [t.digest for t in tables(final)]
        assert [sorted(p.policy_id for p in shard.policies)
                for shard in router.publication] == \
            [sorted(p.policy_id for p in shard.policies)
             for shard in final.publication]

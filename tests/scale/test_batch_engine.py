"""Batch-equivalence property: decide_batch == the serial decide loop.

Both implementations of the Authorizer contract — the interpreter
(:class:`PolicyEvaluator`) and the compiled router
(:class:`EpochalShardRouter`) — must answer a batch exactly as the
interpreter's one-at-a-time loop does: the full Decision (granted,
determining policy, applicable set, reason) and the audit trail, across
every conflict-resolution strategy, both defaults, payload conditions,
and many random workloads.
"""

import random

import pytest

from repro.core.audit import AuditLog
from repro.core.evaluator import (
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.policy import Action, PolicyBase, grant
from repro.datagen.population import generate_population
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import random_policies, random_requests


def build_policies(seed: int, policy_count: int = 40):
    return random_policies(random.Random(seed), policy_count)


def audit_rows(log: AuditLog) -> list[tuple]:
    return [(r.subject, r.action, r.resource, r.granted, r.detail)
            for r in log]


class TestBatchEquivalence:
    @pytest.mark.parametrize("resolution", list(ConflictResolution))
    @pytest.mark.parametrize("default", list(DefaultDecision))
    def test_batch_equals_sequential(self, resolution, default):
        for seed in range(6):
            policies = build_policies(seed)
            requests = random_requests(random.Random(1000 + seed), 120)
            serial = PolicyEvaluator(PolicyBase(policies), resolution,
                                     default)
            expected = [serial.decide(*r) for r in requests]
            interpreter = PolicyEvaluator(PolicyBase(policies),
                                          resolution, default)
            router = EpochalShardRouter.from_policies(
                policies, resolution=resolution, default=default)
            assert interpreter.decide_batch(requests) == expected, \
                f"seed {seed} diverged (interpreter)"
            assert router.decide_batch(requests) == expected, \
                f"seed {seed} diverged (router)"

    def test_many_seeds_default_config(self):
        for seed in range(25):
            policies = build_policies(seed, policy_count=25)
            requests = random_requests(random.Random(seed), 80)
            serial = PolicyEvaluator(PolicyBase(policies))
            router = EpochalShardRouter.from_policies(policies)
            assert router.decide_batch(requests) == \
                [serial.decide(*r) for r in requests], f"seed {seed}"

    def test_triples_without_payload_accepted(self):
        policies = build_policies(3)
        requests = [r[:3] for r in
                    random_requests(random.Random(3), 40)]
        serial = PolicyEvaluator(PolicyBase(policies))
        expected = [serial.decide(*r) for r in requests]
        assert serial.decide_batch(requests) == expected
        assert EpochalShardRouter.from_policies(policies).decide_batch(
            requests) == expected

    def test_empty_batch(self):
        policies = build_policies(0)
        assert PolicyEvaluator(PolicyBase(policies)).decide_batch([]) == []
        assert EpochalShardRouter.from_policies(policies).decide_batch(
            []) == []


class TestBatchSideEffects:
    def test_audit_records_match_serial_order(self):
        policies = build_policies(7)
        requests = random_requests(random.Random(7), 60)
        serial_log, batch_log, router_log = (AuditLog(), AuditLog(),
                                             AuditLog())
        serial = PolicyEvaluator(PolicyBase(policies), audit=serial_log)
        for request in requests:
            serial.decide(*request)
        PolicyEvaluator(PolicyBase(policies),
                        audit=batch_log).decide_batch(requests)
        EpochalShardRouter.from_policies(
            policies, audit=router_log).decide_batch(requests)
        assert audit_rows(batch_log) == audit_rows(serial_log)
        assert audit_rows(router_log) == audit_rows(serial_log)

    def test_policy_mutation_between_batches_invalidates(self):
        directory = generate_population(4, seed=0)
        subject = directory.get("user00000")
        base = PolicyBase()
        evaluator = PolicyEvaluator(base)
        router = EpochalShardRouter()
        triple = (subject, Action.READ, "hospital/records/r1/chart")
        assert not evaluator.decide_batch([triple])[0].granted
        assert not router.decide_batch([triple])[0].granted
        policy = grant(None, Action.READ, "hospital/**")
        base.add(policy)
        router.add(policy)
        assert evaluator.decide_batch([triple])[0].granted
        assert router.decide_batch([triple])[0].granted

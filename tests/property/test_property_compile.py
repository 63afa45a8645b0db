"""Property-based tests: the compiled path is byte-identical to the
interpreter's serial loop — the router under random grant/revoke
interleavings (the shards a change routes to recompiled at every
publication), and over random policies, conflict resolutions, defaults,
payloads and shard counts."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog
from repro.core.evaluator import (
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.policy import PolicyBase
from repro.compile import verify_compiled
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import random_policies, random_requests


@st.composite
def interleaving(draw):
    """(seed, steps): adds, removes and decision batches, interleaved."""
    seed = draw(st.integers(0, 1 << 30))
    steps = [draw(st.sampled_from(["add", "add", "remove", "batch"]))
             for _ in range(draw(st.integers(2, 14)))]
    steps.append("batch")
    return seed, steps


def audit_rows(log: AuditLog) -> list[tuple]:
    return [(r.subject, r.action, r.resource, r.granted, r.detail)
            for r in log]


class TestCompiledEngineEquivalence:
    @given(interleaving())
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_under_mutation(self, case):
        seed, steps = case
        rng = random.Random(seed)
        base = PolicyBase()
        serial_audit, compiled_audit = AuditLog(), AuditLog()
        serial = PolicyEvaluator(base, audit=serial_audit)
        compiled = EpochalShardRouter(shard_count=3, audit=compiled_audit)
        live = []
        for step in steps:
            if step == "add":
                policy = base.add(random_policies(rng, 1)[0])
                compiled.add(policy)
                live.append(policy)
            elif step == "remove" and live:
                policy = live.pop(rng.randrange(len(live)))
                base.remove(policy)
                compiled.remove(policy)
            elif step == "batch":
                requests = random_requests(rng, rng.randrange(1, 12))
                serial_decisions = [serial.decide(*r) for r in requests]
                assert compiled.decide_batch(requests) == \
                    serial_decisions
        # The compiled engine's audit trail replays the request stream
        # with the serial evaluator's verdicts and reasons.
        assert audit_rows(compiled_audit) == audit_rows(serial_audit)

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=40, deadline=None)
    def test_recompiled_artifact_always_self_verifies(self, seed):
        rng = random.Random(seed)
        router = EpochalShardRouter.from_policies(
            random_policies(rng, rng.randrange(1, 10)), shard_count=1)
        for _ in range(3):
            shard = router.publication[0]
            verification = verify_compiled(shard.table,
                                           PolicyBase(shard.policies))
            assert verification.verdict == "proved"
            assert verification.unexplained == 0
            router.add(random_policies(rng, 1)[0])


class TestRouterEquivalence:
    @given(st.integers(0, 1 << 30), st.integers(0, 40),
           st.sampled_from(list(ConflictResolution)),
           st.sampled_from(list(DefaultDecision)),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_router_equals_interpreter(self, seed, policy_count,
                                       resolution, default, shard_count):
        rng = random.Random(seed)
        policies = random_policies(rng, policy_count)
        # random_requests attaches a severity payload to ~20% of them.
        requests = random_requests(rng, 60)
        serial_audit, router_audit = AuditLog(), AuditLog()
        interpreter = PolicyEvaluator(PolicyBase(policies), resolution,
                                      default, audit=serial_audit)
        router = EpochalShardRouter.from_policies(
            policies, shard_count=shard_count, resolution=resolution,
            default=default, audit=router_audit)
        assert router.decide_batch(requests) == \
            [interpreter.decide(*r) for r in requests]
        assert audit_rows(router_audit) == audit_rows(serial_audit)

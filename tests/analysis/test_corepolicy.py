"""The policy rule domain: dead, conflicting, shadowed policies."""

import random

import pytest

from repro.analysis.corepolicy import (
    analyze_core_policies,
    dedupe_findings,
    patterns_overlap,
)
from repro.core.credentials import anyone, has_role
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import random_policies


def seeded_defect_policies():
    return [
        # conflict pair: shared subjects, overlapping resources
        grant(has_role("doctor"), Action.READ, "records/**"),
        deny(anyone(), Action.READ, "records/ssn"),
        # dead: no probe subject carries this role
        grant(has_role("chief-haruspex"), Action.WRITE, "labs/*"),
        # shadowed: every path it reaches denied for all its subjects
        grant(has_role("nurse"), Action.WRITE, "archive/old"),
        deny(anyone(), Action.WRITE, "archive/**"),
    ]


def finding_keys(report):
    return sorted((f.rule_id, f.location, f.message) for f in report)


def test_all_three_rules_fire_on_seeded_base():
    report = analyze_core_policies(seeded_defect_policies())
    rule_ids = {f.rule_id for f in report}
    assert rule_ids == {"POL-DEAD", "POL-CONFLICT", "POL-SHADOW"}


def test_healthy_base_is_clean():
    base = PolicyBase()
    base.add(grant(has_role("doctor"), Action.READ, "records/**"))
    base.add(grant(has_role("nurse"), Action.READ, "records/*/vitals"))
    base.add(deny(anyone(), Action.WRITE, "archive/**"))
    assert len(analyze_core_policies(base)) == 0


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 8])
def test_sharded_report_matches_monolithic(shard_count):
    policies = seeded_defect_policies()
    router = EpochalShardRouter.from_policies(policies,
                                              shard_count=shard_count)
    assert finding_keys(analyze_core_policies(router.policies())) == \
        finding_keys(analyze_core_policies(policies))


@pytest.mark.parametrize("shard_count", [1, 2, 5, 8])
def test_broadcast_glob_policies_report_once(shard_count):
    """Glob-head policies live on every shard; findings must not."""
    policies = [
        grant(has_role("doctor"), Action.READ, "**"),
        deny(anyone(), Action.READ, "**"),
    ]
    router = EpochalShardRouter.from_policies(policies,
                                              shard_count=shard_count)
    report = analyze_core_policies(router.policies())
    conflicts = [f for f in report if f.rule_id == "POL-CONFLICT"]
    assert len(conflicts) == 1


def test_random_bases_are_shard_invariant():
    rng = random.Random(20260808)
    for _ in range(6):
        policies = random_policies(rng, rng.randrange(3, 12))
        monolithic = finding_keys(analyze_core_policies(policies))
        for shard_count in (1, 3, 7):
            router = EpochalShardRouter.from_policies(
                policies, shard_count=shard_count)
            assert finding_keys(analyze_core_policies(
                router.policies())) == monolithic, shard_count


def test_dedupe_findings_keeps_first_order():
    report = analyze_core_policies(seeded_defect_policies())
    findings = list(report) + list(report)
    assert dedupe_findings(findings) == list(report)


def test_patterns_overlap_cases():
    def policy(resource, **kwargs):
        return grant(anyone(), Action.READ, resource, **kwargs)

    assert patterns_overlap(policy("records/**"), policy("records/ssn"))
    assert patterns_overlap(policy("r*/x"), policy("records/x"))
    assert patterns_overlap(policy("**"), policy("a/b/c"))
    assert not patterns_overlap(policy("records/a"), policy("records/b"))
    assert not patterns_overlap(policy("lab/**"), policy("archive/**"))

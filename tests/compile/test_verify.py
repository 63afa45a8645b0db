"""Static equivalence verification proves, explains, or refutes."""

import random

from repro.core.credentials import anyone, has_role
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.compile import compile_policy_base
from repro.compile.verify import verify_compiled

from tests.scale.workloads import random_policies


def healthy_base():
    base = PolicyBase()
    base.add(grant(has_role("doctor"), Action.READ, "records/**"))
    base.add(deny(anyone(), Action.READ, "records/*/ssn"))
    base.add(grant(has_role("nurse"), Action.READ,
                   "records/r*/vitals"))
    base.add(grant(has_role("doctor"), Action.WRITE, "records/*"))
    return base


def test_healthy_base_is_proved_with_no_disagreements():
    base = healthy_base()
    verification = verify_compiled(compile_policy_base(base), base)
    assert verification.verdict == "proved"
    assert verification.cells > 0
    assert not verification.disagreements
    assert verification.findings() == []


def test_residual_policy_reported_but_still_proved():
    base = healthy_base()
    base.add(grant(anyone(), Action.READ, "notes/*",
                   condition=lambda payload: payload is None))
    verification = verify_compiled(compile_policy_base(base), base)
    assert verification.verdict == "proved"
    assert verification.unexplained == 0
    rule_ids = [f.rule_id for f in verification.findings()]
    assert rule_ids == ["COMPILE-RESIDUAL"]


def test_stale_artifact_against_drifted_base_is_refuted():
    base = healthy_base()
    artifact = compile_policy_base(base)
    base.add(deny(anyone(), Action.READ, "records/**"))
    verification = verify_compiled(artifact, base)
    assert verification.verdict == "refuted"
    assert verification.unexplained > 0
    rule_ids = {f.rule_id for f in verification.findings()}
    assert "COMPILE-DIVERGE" in rule_ids
    diverge = [f for f in verification.findings()
               if f.rule_id == "COMPILE-DIVERGE"][0]
    assert str(base.generation) in diverge.fix_hint


def test_to_dict_shape():
    base = healthy_base()
    artifact = compile_policy_base(base)
    report = verify_compiled(artifact, base).to_dict()
    assert report["digest"] == artifact.digest
    assert report["verdict"] == "proved"
    assert set(report) == {"digest", "source_generation",
                           "base_generation", "cells", "disagreements",
                           "explained", "unexplained",
                           "residual_policies", "verdict"}


def test_random_bases_always_self_verify():
    rng = random.Random(20260808)
    for _ in range(25):
        base = PolicyBase(random_policies(rng, rng.randrange(1, 16)))
        verification = verify_compiled(compile_policy_base(base), base)
        assert verification.verdict == "proved"
        assert verification.unexplained == 0

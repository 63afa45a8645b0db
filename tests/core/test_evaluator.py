"""Tests for policy evaluation and conflict resolution."""

import pytest

from repro.core.audit import AuditLog
from repro.core.credentials import anyone, has_role
from repro.core.errors import AccessDenied
from repro.core.evaluator import (
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.subjects import Role, Subject

DOCTOR = Subject("dr", roles={Role("doctor")})


def evaluator(policies, **kwargs) -> PolicyEvaluator:
    return PolicyEvaluator(PolicyBase(policies), **kwargs)


class TestDefaults:
    def test_closed_world_denies_uncovered(self):
        ev = evaluator([], default=DefaultDecision.CLOSED)
        assert not ev.check(DOCTOR, Action.READ, "anything")

    def test_open_world_grants_uncovered(self):
        ev = evaluator([], default=DefaultDecision.OPEN)
        assert ev.check(DOCTOR, Action.READ, "anything")

    def test_default_decision_has_no_determining_policy(self):
        decision = evaluator([]).decide(DOCTOR, Action.READ, "x")
        assert decision.determining is None
        assert decision.applicable == ()


class TestDenyOverrides:
    def test_deny_wins_over_grant(self):
        ev = evaluator([
            grant(anyone(), Action.READ, "h/**"),
            deny(anyone(), Action.READ, "h/secret"),
        ])
        assert ev.check(DOCTOR, Action.READ, "h/public")
        assert not ev.check(DOCTOR, Action.READ, "h/secret")

    def test_grant_alone_grants(self):
        ev = evaluator([grant(anyone(), Action.READ, "h/**")])
        decision = ev.decide(DOCTOR, Action.READ, "h/x")
        assert decision.granted
        assert decision.determining is not None


class TestGrantOverrides:
    def test_grant_wins_over_deny(self):
        ev = evaluator([
            deny(anyone(), Action.READ, "h/**"),
            grant(has_role("doctor"), Action.READ, "h/**"),
        ], resolution=ConflictResolution.GRANT_OVERRIDES)
        assert ev.check(DOCTOR, Action.READ, "h/x")

    def test_deny_without_grant_denies(self):
        ev = evaluator([deny(anyone(), Action.READ, "h/**")],
                       resolution=ConflictResolution.GRANT_OVERRIDES)
        assert not ev.check(DOCTOR, Action.READ, "h/x")


class TestMostSpecific:
    def test_specific_grant_beats_general_deny(self):
        ev = evaluator([
            deny(anyone(), Action.READ, "h/**"),
            grant(anyone(), Action.READ, "h/records/r1"),
        ], resolution=ConflictResolution.MOST_SPECIFIC)
        assert ev.check(DOCTOR, Action.READ, "h/records/r1")
        assert not ev.check(DOCTOR, Action.READ, "h/records/r2")

    def test_tie_resolves_deny(self):
        ev = evaluator([
            grant(anyone(), Action.READ, "h/x"),
            deny(anyone(), Action.READ, "h/x"),
        ], resolution=ConflictResolution.MOST_SPECIFIC)
        assert not ev.check(DOCTOR, Action.READ, "h/x")


class TestPriority:
    def test_higher_priority_wins(self):
        ev = evaluator([
            deny(anyone(), Action.READ, "h/**", priority=0),
            grant(anyone(), Action.READ, "h/**", priority=10),
        ], resolution=ConflictResolution.PRIORITY)
        assert ev.check(DOCTOR, Action.READ, "h/x")

    def test_equal_priority_deny_wins(self):
        ev = evaluator([
            deny(anyone(), Action.READ, "h/**", priority=5),
            grant(anyone(), Action.READ, "h/**", priority=5),
        ], resolution=ConflictResolution.PRIORITY)
        assert not ev.check(DOCTOR, Action.READ, "h/x")


class TestEnforceAndAudit:
    def test_enforce_raises_on_deny(self):
        ev = evaluator([])
        with pytest.raises(AccessDenied) as exc_info:
            ev.enforce(DOCTOR, Action.READ, "h/x")
        assert exc_info.value.subject == "dr"

    def test_enforce_returns_decision_on_grant(self):
        ev = evaluator([grant(anyone(), Action.READ, "**")])
        decision = ev.enforce(DOCTOR, Action.READ, "h/x")
        assert decision.granted

    def test_decisions_are_audited(self):
        audit = AuditLog()
        ev = evaluator([grant(anyone(), Action.READ, "h/**")],
                       audit=audit)
        ev.check(DOCTOR, Action.READ, "h/x")
        ev.check(DOCTOR, Action.READ, "elsewhere")
        assert len(audit) == 2
        assert audit.verify()
        assert len(audit.denials()) == 1

    def test_content_payload_reaches_policies(self):
        ev = evaluator([
            grant(anyone(), Action.READ, "h/**",
                  condition=lambda p: p and p.get("public")),
        ])
        assert ev.check(DOCTOR, Action.READ, "h/x", {"public": True})
        assert not ev.check(DOCTOR, Action.READ, "h/x", {"public": False})


class TestEvaluationIsNotMemoised:
    """The interpreter does the work every time — it is what experiments
    E1 and A3 time, so a cache hit there would time the cache."""

    def test_each_decide_asks_the_base_once(self):
        base = PolicyBase([grant(anyone(), Action.READ, "h/**")])
        calls = []
        applicable = base.applicable

        def counting(*args):
            calls.append(args)
            return applicable(*args)

        base.applicable = counting
        ev = PolicyEvaluator(base)
        first = ev.decide(DOCTOR, Action.READ, "h/x")
        second = ev.decide(DOCTOR, Action.READ, "h/x")
        assert first == second
        assert len(calls) == 2

    def test_decide_batch_is_the_serial_loop(self):
        audit = AuditLog()
        ev = evaluator([grant(anyone(), Action.READ, "h/**"),
                        deny(has_role("doctor"), Action.READ, "h/s")],
                       audit=audit)
        requests = [(DOCTOR, Action.READ, "h/x"),
                    (DOCTOR, Action.READ, "h/s"),
                    (DOCTOR, Action.WRITE, "h/x", {"k": 1})]
        serial = [ev.decide(*r) for r in requests]
        assert ev.decide_batch(requests) == serial
        rows = [(r.resource, r.action, r.granted) for r in audit]
        assert rows[3:] == rows[:3]

"""The Authorizer contract, checked on every implementation.

:class:`~repro.core.evaluator.Authorizer` has two implementations: the
cache-free interpreter (:class:`PolicyEvaluator`) and the compiled path
(:class:`EpochalShardRouter`, run here at one shard and at three, where
a glob-headed policy is broadcast).
Each test here runs once per implementation and pins one clause of the
contract — explicit verdicts for the section 3.2 conflict-resolution
strategies and defaults, ``decide_batch`` as the serial loop, audit rows
in input order, per-request payloads, writes visible to the next
decision, and removal by equality, one copy at a time.
"""

import dataclasses

import pytest

from repro.core.audit import AuditLog
from repro.core.errors import ConfigurationError
from repro.core.credentials import anyone, has_role
from repro.core.evaluator import (
    Authorizer,
    ConflictResolution,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.objects import ResourcePath
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.subjects import Role, Subject
from repro.gateway.engine import EpochalShardRouter

DOCTOR = Subject("dr", roles={Role("doctor")})
VISITOR = Subject("guest")


def interpreter(policies, **kwargs):
    base = PolicyBase(policies)
    return PolicyEvaluator(base, **kwargs), base.add, base.remove


def shard_router(shard_count):
    def build(policies, **kwargs):
        router = EpochalShardRouter.from_policies(
            policies, shard_count=shard_count, **kwargs)
        return router, router.add, router.remove
    return build


@pytest.fixture(params=[interpreter, shard_router(3), shard_router(1)],
                ids=["interpreter", "shard_router", "shard_router1"])
def build(request):
    """Builds (authorizer, add_policy, remove_policy) over a policy
    list."""
    return request.param


def conflicting_policies():
    """A base on which the four strategies give four distinct verdict
    pairs for (doctor, h/records/r1) and (doctor, h/public/notes)."""
    return [
        deny(anyone(), Action.READ, "h/**", priority=10),
        grant(has_role("doctor"), Action.READ, "h/records/r1"),
        grant(anyone(), Action.READ, "h/public/**", priority=20),
        deny(has_role("doctor"), Action.READ, "h/public/notes"),
    ]


def mixed_requests():
    return [
        (DOCTOR, Action.READ, "h/records/r1"),
        (DOCTOR, Action.READ, "h/public/notes", {"k": 1}),
        (VISITOR, Action.READ, "h/public/x"),
        (VISITOR, Action.WRITE, "h/records/r1", None),
        (DOCTOR, Action.READ, "elsewhere"),
        (DOCTOR, Action.READ, "h/records/r1"),
    ]


def audit_rows(log: AuditLog) -> list[tuple]:
    return [(r.subject, r.action, r.resource, r.granted, r.detail)
            for r in log]


EXPECTED_VERDICTS = {
    ConflictResolution.DENY_OVERRIDES: (False, False),
    ConflictResolution.GRANT_OVERRIDES: (True, True),
    ConflictResolution.MOST_SPECIFIC: (True, False),
    ConflictResolution.PRIORITY: (False, True),
}


class TestContract:
    def test_declares_both_methods(self, build):
        authorizer, *_ = build([])
        methods = {name for name in vars(Authorizer)
                   if not name.startswith("_")}
        assert methods == {"decide", "decide_batch"}
        for name in methods:
            assert callable(getattr(authorizer, name))

    @pytest.mark.parametrize("resolution", list(ConflictResolution),
                             ids=lambda r: r.value)
    def test_conflict_resolution_verdicts(self, build, resolution):
        authorizer, *_ = build(conflicting_policies(),
                              resolution=resolution)
        verdicts = tuple(
            authorizer.decide(DOCTOR, Action.READ, path).granted
            for path in ("h/records/r1", "h/public/notes"))
        assert verdicts == EXPECTED_VERDICTS[resolution]

    @pytest.mark.parametrize("default", list(DefaultDecision),
                             ids=lambda d: d.value)
    def test_default_applies_when_nothing_matches(self, build, default):
        authorizer, *_ = build(conflicting_policies(), default=default)
        decision = authorizer.decide(VISITOR, Action.READ, "elsewhere")
        assert decision.granted is (default is DefaultDecision.OPEN)
        assert decision.determining is None
        assert decision.applicable == ()

    def test_decide_batch_is_the_serial_loop(self, build):
        requests = mixed_requests()
        policies = conflicting_policies()
        authorizer, *_ = build(policies)
        oracle = PolicyEvaluator(PolicyBase(policies))
        serial = [authorizer.decide(*r) for r in requests]
        assert authorizer.decide_batch(requests) == serial
        assert serial == [oracle.decide(*r) for r in requests]

    def test_audit_rows_follow_input_order(self, build):
        requests = mixed_requests()
        policies = conflicting_policies()
        serial_log, batch_log = AuditLog(), AuditLog()
        serial, *_ = build(policies, audit=serial_log)
        batched, *_ = build(policies, audit=batch_log)
        for request in requests:
            serial.decide(*request)
        batched.decide_batch(requests)
        rows = audit_rows(batch_log)
        assert rows == audit_rows(serial_log)
        assert [row[2] for row in rows] == [r[2] for r in requests]

    def test_empty_batch_decides_and_audits_nothing(self, build):
        log = AuditLog()
        authorizer, *_ = build(conflicting_policies(), audit=log)
        assert authorizer.decide_batch([]) == []
        assert len(log) == 0

    def test_string_and_resource_path_agree(self, build):
        log = AuditLog()
        authorizer, *_ = build(conflicting_policies(), audit=log)
        as_text = authorizer.decide(DOCTOR, Action.READ, "h/records/r1")
        as_path = authorizer.decide(DOCTOR, Action.READ,
                                    ResourcePath("h/records/r1"))
        assert as_text == as_path
        assert audit_rows(log)[0] == audit_rows(log)[1]

    def test_payload_is_evaluated_per_request(self, build):
        authorizer, *_ = build([
            grant(anyone(), Action.READ, "h/**",
                  condition=lambda p: p and p.get("public")),
        ])
        batch = [(DOCTOR, Action.READ, "h/x", {"public": True}),
                 (DOCTOR, Action.READ, "h/x", {"public": False}),
                 (DOCTOR, Action.READ, "h/x"),
                 (DOCTOR, Action.READ, "h/x", {"public": True})]
        assert [d.granted for d in authorizer.decide_batch(batch)] == \
            [True, False, False, True]

    def test_write_is_visible_to_the_next_decision(self, build):
        authorizer, add_policy, _ = build(
            [grant(anyone(), Action.READ, "h/**")])
        assert authorizer.decide(DOCTOR, Action.READ, "h/secret").granted
        add_policy(deny(has_role("doctor"), Action.READ, "h/secret"))
        assert not authorizer.decide(DOCTOR, Action.READ,
                                     "h/secret").granted
        assert authorizer.decide_batch(
            [(DOCTOR, Action.READ, "h/open")])[0].granted

    def test_removing_an_equal_copy_revokes(self, build):
        policy = grant(anyone(), Action.READ, "h/**")
        authorizer, _, remove_policy = build([policy])
        assert authorizer.decide(DOCTOR, Action.READ, "h/x").granted
        remove_policy(dataclasses.replace(policy))
        decision = authorizer.decide(DOCTOR, Action.READ, "h/x")
        assert not decision.granted
        assert decision.determining is None

    def test_removing_one_of_two_copies_keeps_the_other(self, build):
        policy = grant(anyone(), Action.READ, "h/**")
        authorizer, _, remove_policy = build([policy, policy])
        remove_policy(policy)
        assert authorizer.decide(DOCTOR, Action.READ, "h/x").granted
        remove_policy(policy)
        assert not authorizer.decide(DOCTOR, Action.READ, "h/x").granted

    def test_removing_an_absent_policy_is_a_typed_error(self, build):
        authorizer, _, remove_policy = build(
            [grant(anyone(), Action.READ, "h/**")])
        with pytest.raises(ConfigurationError):
            remove_policy(grant(anyone(), Action.READ, "h/**"))
        assert authorizer.decide(DOCTOR, Action.READ, "h/x").granted


class TestPolicyCount:
    """The router lists and counts its policies as a ``PolicyBase`` over
    the same adds and removes does: a broadcast policy once, however
    many shards hold it, and a duplicate once per copy."""

    @pytest.mark.parametrize("shard_count", [1, 3])
    @pytest.mark.parametrize("broadcast_copies", [0, 3])
    @pytest.mark.parametrize("removes", [0, 1])
    def test_matches_policy_base(self, shard_count, broadcast_copies,
                                 removes):
        policy = grant(anyone(), Action.READ, "h/records/r1")
        broadcast = grant(anyone(), Action.READ, "*/public")
        policies = [policy, policy] + [broadcast] * broadcast_copies
        base = PolicyBase(policies)
        router = EpochalShardRouter.from_policies(
            policies, shard_count=shard_count)
        for _ in range(removes):
            base.remove(policy)
            router.remove(policy)
        assert len(router) == len(base)
        assert list(router.policies()) == sorted(
            base, key=lambda p: p.policy_id)

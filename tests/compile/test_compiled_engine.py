"""The compiled path: byte-identical decisions, a new table per change."""

from repro.core.audit import AuditLog
from repro.core.credentials import anyone, has_role
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.analysis.probes import default_probe_subjects
from repro.compile import compile_policy_base
from repro.gateway.engine import EpochalShardRouter


def fixture_policies():
    return [
        grant(has_role("doctor"), Action.READ, "records/**"),
        deny(anyone(), Action.READ, "records/billing/**"),
        grant(has_role("nurse"), Action.READ, "records/r*/vitals"),
        grant(has_role("doctor"), Action.WRITE, "records/*"),
        grant(anyone(), Action.READ, "notes/*",
              condition=lambda payload: payload is None
              or payload == "public"),
    ]


def fixture_requests(subjects):
    paths = ("records/r1", "records/billing/x", "records/r2/vitals",
             "notes/a", "other")
    return [(s, a, p, payload)
            for s in subjects
            for p in paths
            for a in (Action.READ, Action.WRITE)
            for payload in (None, "public", "secret")]


def test_decisions_identical_to_interpreter():
    policies = fixture_policies()
    engine = EpochalShardRouter.from_policies(policies)
    oracle = PolicyEvaluator(PolicyBase(policies))
    for request in fixture_requests(default_probe_subjects()[:12]):
        assert engine.decide(*request) == oracle.decide(*request)


def test_decide_batch_matches_serial_and_audits_in_order():
    policies = fixture_policies()
    compiled_audit, serial_audit = AuditLog(), AuditLog()
    engine = EpochalShardRouter.from_policies(policies,
                                              audit=compiled_audit)
    oracle = PolicyEvaluator(PolicyBase(policies), audit=serial_audit)
    requests = fixture_requests(default_probe_subjects()[:8])
    assert engine.decide_batch(requests) == \
        [oracle.decide(*r) for r in requests]
    compiled_rows = [(r.subject, r.action, r.resource, r.granted,
                      r.detail) for r in compiled_audit]
    serial_rows = [(r.subject, r.action, r.resource, r.granted,
                    r.detail) for r in serial_audit]
    assert compiled_rows == serial_rows


def test_recompiles_on_mutation_and_stays_correct():
    router = EpochalShardRouter.from_policies(fixture_policies())
    subject = default_probe_subjects()[0]
    (shard,) = router.shards_for_policy(fixture_policies()[0])
    first, epoch = router.publication[shard].table, router.epoch
    extra = deny(anyone(), Action.READ, "records/r1")
    router.add(extra)
    second = router.publication[shard].table
    assert router.epoch == epoch + 1
    assert second is not first
    assert extra in second.policies
    assert not router.decide(subject, Action.READ, "records/r1").granted
    router.remove(extra)
    assert router.publication[shard].table is not second
    oracle = PolicyEvaluator(PolicyBase(router.policies()))
    assert router.decide(subject, Action.READ, "records/r1") == \
        oracle.decide(subject, Action.READ, "records/r1")


def test_digest_is_deterministic_and_generation_sensitive():
    policies = fixture_policies()
    first = compile_policy_base(PolicyBase(policies))
    second = compile_policy_base(PolicyBase(policies))
    assert first.digest == second.digest
    base = PolicyBase(policies)
    base.add(grant(anyone(), Action.READ, "public/**"))
    assert compile_policy_base(base).digest != first.digest


def test_conditional_cells_are_not_memoized_per_payload():
    policies = fixture_policies()
    artifact = compile_policy_base(PolicyBase(policies))
    subject = default_probe_subjects()[0]
    granted = artifact.decide(subject, Action.READ, "notes/a",
                              "public")
    denied = artifact.decide(subject, Action.READ, "notes/a",
                             "secret")
    assert granted.granted and not denied.granted
    # Payload-free cell is memoized exactly once per (state, action,
    # profile) triple.
    cells = artifact.stats().cells_filled
    artifact.decide(subject, Action.READ, "notes/a")
    artifact.decide(subject, Action.READ, "notes/a")
    assert artifact.stats().cells_filled == cells + 1


def test_stats_shape():
    artifact = compile_policy_base(PolicyBase(fixture_policies()))
    stats = artifact.stats()
    assert stats.policies == 5
    assert stats.residual_policies == 1
    assert stats.path_classes > 0
    assert stats.dfa_states >= stats.path_classes

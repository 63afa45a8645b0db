"""Snapshot policy bases decide exactly like the live evaluator."""

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
from repro.snap.policy import EpochalPolicyEngine, SnapshotPolicyBase

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


class TestBaseEquivalence:
    def test_candidates_match_live_policy_base(self):
        live = PolicyBase(POLICIES)
        snap = SnapshotPolicyBase(POLICIES).freeze()
        for _, action, path in REQUESTS:
            live_ids = [p.policy_id
                        for p in live.candidates(action, path)]
            snap_ids = [p.policy_id
                        for p in snap.candidates(action, path)]
            assert snap_ids == live_ids, (action, path)

    def test_applicable_matches_live_policy_base(self):
        live = PolicyBase(POLICIES)
        snap = SnapshotPolicyBase(POLICIES).freeze()
        for subject, action, path in REQUESTS:
            assert (snap.applicable(subject, action, path)
                    == live.applicable(subject, action, path))

    def test_iteration_and_len(self):
        base = SnapshotPolicyBase(POLICIES)
        assert len(base) == len(POLICIES)
        assert list(base) == POLICIES
        snap = base.freeze()
        assert len(snap) == len(POLICIES)
        assert list(snap) == POLICIES

    def test_remove_unknown_policy_raises(self):
        base = SnapshotPolicyBase(POLICIES[:2])
        with pytest.raises(ConfigurationError):
            base.remove(POLICIES[3])

    def test_freeze_is_stable_under_later_writes(self):
        base = SnapshotPolicyBase(POLICIES[:2])
        snap = base.freeze()
        extra = base.add(grant(anyone(), Action.WRITE, "hospital/lobby"))
        assert len(snap) == 2
        assert snap.applicable(VISITOR, Action.WRITE, "hospital/lobby") == []
        assert base.applicable(
            VISITOR, Action.WRITE, "hospital/lobby") == [extra]
        base.remove(POLICIES[0])
        assert list(snap)[0] is POLICIES[0]


class TestEngineEquivalence:
    @pytest.mark.parametrize("resolution", list(ConflictResolution))
    @pytest.mark.parametrize("default", list(DefaultDecision))
    def test_decisions_match_live_evaluator(self, resolution, default):
        live = PolicyEvaluator(PolicyBase(POLICIES), resolution=resolution,
                               default=default)
        engine = EpochalPolicyEngine(POLICIES, resolution=resolution,
                                     default=default)
        for subject, action, path in REQUESTS:
            expected = live.decide(subject, action, path)
            got = engine.decide(subject, action, path)
            assert got.granted == expected.granted, (subject, action, path)
            assert got.determining == expected.determining

    def test_decide_batch_matches_serial_decides(self):
        engine = EpochalPolicyEngine(POLICIES)
        serial = [engine.decide(*request) for request in REQUESTS]
        batch = engine.decide_batch(REQUESTS)
        assert [d.granted for d in batch] == [d.granted for d in serial]

    def test_policy_add_advances_the_epoch(self):
        engine = EpochalPolicyEngine(POLICIES[:1])
        before = engine.current()
        assert not engine.decide(
            DOCTOR, Action.WRITE, "hospital/records/r1").granted
        engine.add_policy(
            grant(has_role("doctor"), Action.WRITE, "hospital/records/**"))
        after = engine.current()
        assert after.epoch == before.epoch + 1
        assert engine.decide(
            DOCTOR, Action.WRITE, "hospital/records/r1").granted
        # The superseded, unpinned epoch was reclaimed.
        assert engine.epochs.is_reclaimed(before.epoch)
        assert engine.epochs.stats.reclaimed == 1

    def test_policy_remove_advances_the_epoch(self):
        denial = deny(anyone(), Action.READ, "hospital/records/ssn")
        engine = EpochalPolicyEngine(
            [grant(anyone(), Action.READ, "hospital/**"), denial])
        assert not engine.decide(
            NURSE, Action.READ, "hospital/records/ssn").granted
        engine.remove_policy(denial)
        assert engine.decide(
            NURSE, Action.READ, "hospital/records/ssn").granted

    def test_per_epoch_decision_cache_is_pure(self):
        """A snapshot never changes, so a repeat decision is answered by
        the cell its table already filled; a write publishes a *new*
        table rather than invalidating the old one."""
        engine = EpochalPolicyEngine(POLICIES)
        table = engine.current().table
        first = engine.decide(DOCTOR, Action.READ, "hospital/lobby")
        filled = table.stats().cells_filled
        assert engine.decide(DOCTOR, Action.READ, "hospital/lobby") == first
        assert table.stats().cells_filled == filled
        engine.add_policy(grant(anyone(), Action.WRITE, "x"))
        assert engine.current().table is not table
        assert table.decide(DOCTOR, Action.READ, "hospital/lobby") == first
        assert table.stats().cells_filled == filled

    def test_reader_pinning_old_epoch_decides_against_old_policies(self):
        engine = EpochalPolicyEngine(POLICIES[:1])  # read-all only
        with engine.epochs.reading() as pinned:
            engine.add_policy(deny(anyone(), Action.READ, "hospital/x"))
            assert pinned.table.decide(
                VISITOR, Action.READ, "hospital/x").granted
            assert not engine.decide(
                VISITOR, Action.READ, "hospital/x").granted

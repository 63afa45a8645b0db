"""Gateway over the snapshot layer: the deterministic pipeline."""

import pytest

from repro.core.credentials import anyone, has_role
from repro.core.errors import ConfigurationError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.subjects import Role, Subject
from repro.gateway.engine import EpochalShardRouter
from repro.snap.xmlstore import SnapshotXmlDatabase

from tests.gateway.driver import drive, sync_gateway

DOCTOR = Subject("dr", roles={Role("doctor")})
VISITOR = Subject("vis")

POLICIES = [
    grant(anyone(), Action.READ, "hospital/**"),
    deny(anyone(), Action.READ, "hospital/records/ssn"),
    grant(has_role("doctor"), Action.WRITE, "hospital/records/**"),
]


def make_gateway(**kwargs):
    engine = EpochalShardRouter.from_policies(POLICIES)
    return engine, sync_gateway(engine, **kwargs)


class TestDeterministicDecisions:
    def test_submissions_flow_through_the_shard_router(self):
        _, gateway = make_gateway()
        futures = drive(gateway, [
            (DOCTOR, Action.READ, "hospital/lobby"),
            (VISITOR, Action.READ, "hospital/records/ssn"),
            (DOCTOR, Action.WRITE, "hospital/records/r1"),
            (VISITOR, Action.WRITE, "hospital/records/r1"),
        ])
        assert [f.result().granted for f in futures] == [
            True, False, True, False]
        assert gateway.stats.snapshot()["completed"] == 4

    def test_policy_write_between_batches_changes_later_decisions_only(self):
        engine, gateway = make_gateway(batch_size=4)
        request = (VISITOR, Action.READ, "hospital/lobby")
        before, = drive(gateway, [request])
        engine.add(deny(anyone(), Action.READ, "hospital/lobby"))
        after, = drive(gateway, [request])
        assert before.result().granted
        assert not after.result().granted

    def test_identical_runs_are_identical(self):
        requests = [(DOCTOR, Action.READ, "hospital/records/ssn"),
                    (VISITOR, Action.READ, "hospital/x"),
                    (DOCTOR, Action.WRITE, "hospital/records/r2")]
        outcomes = []
        for _ in range(2):
            _, gateway = make_gateway()
            futures = drive(gateway, requests)
            outcomes.append([f.result().granted for f in futures])
        assert outcomes[0] == outcomes[1]


class TestSnapshotReadWritePath:
    def test_reads_and_writes_against_a_snapshot_store(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1", "<doc><a>1</a></doc>")
        engine = PolicyEvaluator(PolicyBase(POLICIES))
        gateway = sync_gateway(engine, store=db)

        before = gateway.read(lambda s: s.serialize("c", "d1"))
        epoch_before = db.epochs.current_epoch()

        def mutate(store):
            store.set_text("c", "d1", "/doc/a", "2")
            store.insert("c", "d2", "<doc2/>")

        gateway.write(mutate)
        # One write call, one published epoch, both edits visible.
        assert db.epochs.current_epoch() == epoch_before + 1
        assert gateway.read(
            lambda s: s.serialize("c", "d1")) == "<doc><a>2</a></doc>"
        assert before == "<doc><a>1</a></doc>"
        stats = gateway.stats.snapshot()
        assert stats["writes"] == 1
        assert stats["epochs_advanced"] == 1
        assert stats["snapshot_reads"] == 2

    def test_read_during_write_sees_the_previous_epoch(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1", "<doc><a>1</a></doc>")
        gateway = sync_gateway(PolicyEvaluator(PolicyBase(POLICIES)),
                               store=db)

        def mutate(store):
            store.set_text("c", "d1", "/doc/a", "2")
            # Mid-write, the read path still serves the old epoch.
            assert gateway.read(
                lambda s: s.serialize("c", "d1")) == "<doc><a>1</a></doc>"

        gateway.write(mutate)
        assert gateway.read(
            lambda s: s.serialize("c", "d1")) == "<doc><a>2</a></doc>"

    def test_unconfigured_gateway_raises_typed_errors(self):
        gateway = sync_gateway(PolicyEvaluator(PolicyBase(POLICIES)))
        with pytest.raises(ConfigurationError):
            gateway.read(lambda snapshot: snapshot)
        with pytest.raises(ConfigurationError):
            gateway.write(lambda store: store)

"""Gateway durability wiring: ack-on-fsync vs ack-on-enqueue."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore
from repro.wal.vfs import MemVfs

from tests.gateway.driver import sync_gateway


def engine():
    return PolicyEvaluator(PolicyBase())


def durable_store(vfs, **kwargs):
    kwargs.setdefault("auto_flush", False)
    return DurableXmlStore(SnapshotXmlDatabase(), vfs, **kwargs)


class TestGatewayDurability:
    def test_fsync_write_acks_only_after_settle(self):
        vfs = MemVfs()
        store = durable_store(vfs)
        gateway = sync_gateway(engine(), store=store, durability="fsync")

        def seed(publisher):
            publisher.create_collection("g")
            publisher.insert("g", "d1", "<doc><v>1</v></doc>")

        gateway.write(seed)
        assert store.durability_lag == 0
        digest = store.state_digest()
        store.close()
        recovered, _ = DurableXmlStore.recover(vfs, auto_flush=False)
        assert recovered.state_digest() == digest

    def test_enqueue_write_acks_before_the_fsync(self):
        store = durable_store(MemVfs(), durability="enqueue")
        gateway = sync_gateway(engine(), store=store,
                               durability="enqueue")
        gateway.write(lambda s: s.create_collection("g"))
        assert store.durability_lag > 0  # acked, durability trails
        store.wal_sync()
        assert store.durability_lag == 0

    def test_durability_needs_a_durable_store(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sync_gateway(engine(), store=SnapshotXmlDatabase(),
                         durability="fsync")
        assert "wal_sync" in str(excinfo.value)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ConfigurationError):
            sync_gateway(engine(), store=durable_store(MemVfs()),
                         durability="paranoid")

"""Gateway durability wiring: a write is acknowledged at its fsync."""

import threading

import pytest

from repro.core.errors import ConfigurationError, WalError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore
from repro.wal.vfs import MemVfs

from tests.gateway.driver import sync_gateway


def engine():
    return PolicyEvaluator(PolicyBase())


def durable_store(vfs, **kwargs):
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
        assert store.wal.last_synced == store.wal.last_lsn
        digest = store.state_digest()
        store.close()
        recovered, _ = DurableXmlStore.recover(vfs)
        assert recovered.state_digest() == digest

    def test_a_written_and_closed_store_starts_no_thread(self, monkeypatch):
        # Every record is synced by the committer that waits on it.
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread)
                            or start(thread))
        store = durable_store(MemVfs())
        gateway = sync_gateway(engine(), store=store, durability="fsync")
        gateway.write(lambda s: s.create_collection("g"))
        store.close()
        assert started == []

    def test_durability_needs_a_durable_store(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sync_gateway(engine(), store=SnapshotXmlDatabase(),
                         durability="fsync")
        assert "wal_sync" in str(excinfo.value)

    def test_unknown_mode_is_refused(self):
        # Nothing acknowledges a write before its fsync ("enqueue").
        for mode in ("enqueue", "paranoid"):
            with pytest.raises(ConfigurationError):
                sync_gateway(engine(), store=durable_store(MemVfs()),
                             durability=mode)
            with pytest.raises(WalError):
                durable_store(MemVfs(), durability=mode)

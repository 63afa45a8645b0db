"""The gateway speaks replica: wiring, sessions, typed refusals."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.replica.router import ReplicaRouter

from tests.gateway.driver import sync_gateway


def _engine():
    return PolicyEvaluator(PolicyBase())


def _router():
    return ReplicaRouter(shard_count=2, replica_count=3, bucket_count=8)


class TestGatewayWiring:
    def test_write_then_read_your_writes(self):
        gateway = sync_gateway(_engine(), replicas=_router())
        session = gateway.replica_session()
        assert gateway.replica_write("a", "1", session=session) == 1
        gateway.replica_write("b", "2", session=session)
        assert gateway.replica_read("a", session=session) == "1"
        assert gateway.replica_read("b", session=session) == "2"
        snap = gateway.stats.snapshot()
        assert snap["replica_writes"] == 2
        assert snap["replica_reads"] == 2

    def test_sessionless_reads_still_work(self):
        gateway = sync_gateway(_engine(), replicas=_router())
        gateway.replica_write("k", "v")
        assert gateway.replica_read("k") == "v"

    def test_unwired_gateway_refuses_typed(self):
        gateway = sync_gateway(_engine())
        with pytest.raises(ConfigurationError):
            gateway.replica_read("k")
        with pytest.raises(ConfigurationError):
            gateway.replica_write("k", "v")
        with pytest.raises(ConfigurationError):
            gateway.replica_session()


class TestSharedRouter:
    def test_one_router_serves_two_gateways(self):
        router = _router()
        writer = sync_gateway(_engine(), replicas=router)
        reader = sync_gateway(_engine(), replicas=router)
        session = writer.replica_session()
        writer.replica_write("shared", "payload", session=session)
        # The other front end reads the same replica groups; the
        # session carries read-your-writes across front ends.
        assert reader.replica_read("shared", session=session) == \
            "payload"
        assert router.converged()

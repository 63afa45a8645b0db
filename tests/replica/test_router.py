"""ReplicaRouter: sharded placement, sessions, retry + failover."""

import pytest

from repro.core.errors import (
    ConfigurationError,
    IntegrityError,
    RetryExhausted,
)
from repro.faults.clock import FaultClock
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.resilience import RetryPolicy
from repro.replica.router import ReplicaRouter, ReplicaSession


def test_keys_route_deterministically():
    router = ReplicaRouter(shard_count=4, replica_count=3,
                           bucket_count=16)
    shards = {key: router.shard_for_key(key) for key in
              (f"key{i}" for i in range(40))}
    assert shards == {key: router.shard_for_key(key) for key in shards}
    assert len(set(shards.values())) > 1  # the ring actually spreads


def test_write_read_roundtrip_with_session():
    router = ReplicaRouter(shard_count=4, replica_count=3,
                           bucket_count=16)
    session = router.session()
    for i in range(30):
        router.put(f"key{i}", f"val{i}", session=session)
    for i in range(30):
        assert router.get(f"key{i}", session=session) == f"val{i}"
    assert router.converged()
    assert router.writes == 30 and router.reads == 30


def test_delete_routes_and_replicates():
    router = ReplicaRouter(shard_count=2, replica_count=2,
                           bucket_count=8)
    session = router.session()
    router.put("k", "v", session=session)
    router.delete("k", session=session)
    assert router.get("k", session=session) is None
    assert router.converged()


def test_session_floor_rises_monotonically():
    router = ReplicaRouter(shard_count=2, replica_count=3,
                           bucket_count=8)
    session = router.session()
    floors = []
    for i in range(10):
        router.put(f"key{i}", f"v{i}", session=session)
        shard = router.shard_for_key(f"key{i}")
        floors.append((shard, session.floor(shard)))
    seen: dict[int, int] = {}
    for shard, floor in floors:
        assert floor >= seen.get(shard, 0)
        seen[shard] = floor


def test_session_observed_regression_is_integrity_error():
    session = ReplicaSession()
    session.advance(0, 5)
    with pytest.raises(IntegrityError):
        session.observed(0, 3)


def test_reads_spread_across_replicas():
    router = ReplicaRouter(shard_count=1, replica_count=4,
                           bucket_count=8)
    session = router.session()
    router.put("k", "v", session=session)
    for _ in range(30):
        router.get("k", session=session)
    served = router.reads_by_replica()
    readers = {site: count for site, count in served.items()
               if count > 0}
    assert len(readers) == 3  # all three read replicas take traffic
    assert max(readers.values()) <= 2 * min(readers.values())


def test_primary_crash_fails_over_and_write_survives():
    plan = FaultPlan().add("replica:0/0", 0,
                           FaultEvent(FaultKind.CRASH, magnitude=4))
    faults = FaultInjector(plan, FaultClock(), seed=1)
    router = ReplicaRouter(shard_count=1, replica_count=3,
                           bucket_count=8, faults=faults)
    session = router.session()
    version = router.put("k", "v", session=session)
    assert version >= 1
    assert router.failovers >= 1
    assert router.get("k", session=session) == "v"


def test_retry_exhaustion_is_typed():
    plan = FaultPlan()
    for site in ("replica:0/0", "replica:0/1", "replica:0/2"):
        plan.add(site, 0, FaultEvent(FaultKind.CRASH, magnitude=500))
    faults = FaultInjector(plan, FaultClock(), seed=1)
    router = ReplicaRouter(shard_count=1, replica_count=3,
                           bucket_count=8, faults=faults,
                           retry=RetryPolicy(max_attempts=3))
    with pytest.raises(RetryExhausted):
        router.put("k", "v")


def test_state_digest_is_reproducible():
    def build():
        router = ReplicaRouter(shard_count=3, replica_count=2,
                               bucket_count=8)
        for i in range(20):
            router.put(f"key{i}", f"val{i}")
        return router.state_digest()

    assert build() == build()


def test_shard_count_validated():
    with pytest.raises(ConfigurationError):
        ReplicaRouter(shard_count=0)


def test_served_groups_record_no_events():
    # Only callers that compare traces (the chaos battery) pass a list;
    # a served router must not grow a tuple per write, ship and read.
    router = ReplicaRouter(shard_count=4, replica_count=3,
                           bucket_count=16)
    session = router.session()
    for i in range(1_000):
        router.put(f"key{i % 50}", f"val{i}", session=session)
    router.get("key0", session=session)
    assert [group.trace for group in router.groups] == [None] * 4

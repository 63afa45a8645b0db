"""Fork-mode smoke tests: real processes, real sockets, real frames.

Everything heavier (sweeps, chaos, scaling) runs in ``workers=0``
deterministic mode or in the benchmark; these tests prove the actual
process-per-core path — fork inheritance, the socket transport, the
seed handshake and delta shipping over IPC — works end to end.  Skipped
where the platform cannot fork.
"""

import asyncio
import json
import multiprocessing
import random

import pytest

from repro.core.credentials import anyone
from repro.core.errors import ReplicaUnavailable
from repro.core.policy import Action, grant
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gateway import TenantConfig, collect
from repro.multicore import MulticoreGateway
from repro.scale.gateway import Request
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase

from tests.multicore.test_dispatcher import (
    decision_bytes,
    reference_decisions,
)
from tests.scale.workloads import random_policies, random_requests

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method")

WIDE_OPEN = TenantConfig(rate=1e9, burst=1e9)


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestForkMode:
    def test_decisions_over_real_ipc_match_the_reference(self):
        policies = random_policies(random.Random(71), 20)
        requests = random_requests(random.Random(71 + 9000), 24)
        expected = [decision_bytes(d)
                    for d in reference_decisions(policies, requests)]

        async def scenario():
            async with MulticoreGateway(
                    policies, workers=2, shard_count=4,
                    default_tenant=WIDE_OPEN) as gateway:
                futures = [gateway.submit_nowait("t", Request(*request))
                           for request in requests]
                results = await asyncio.gather(*futures)
                return [decision_bytes(d) for d in results]

        assert run_async(scenario()) == expected

    def test_delta_over_ipc_grants_new_policy(self):
        async def scenario():
            subject, _, path, payload = random_requests(
                random.Random(73), 1)[0]
            policies = [grant(anyone(), Action.WRITE, "nowhere")]
            async with MulticoreGateway(
                    policies, workers=2, shard_count=4,
                    default_tenant=WIDE_OPEN) as gateway:
                before = await gateway.submit("t", Request(
                    subject, Action.READ, path, payload))
                await gateway.add_policy(
                    grant(anyone(), Action.READ, "**"))
                after = await gateway.submit("t", Request(
                    subject, Action.READ, path, payload))
                return before.granted, after.granted

        assert run_async(scenario()) == (False, True)

    def test_stream_over_ipc_is_byte_identical(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1", "<doc>" + "".join(
            f"<rec id=\"{i}\"><v>payload {i}</v></rec>"
            for i in range(20)) + "</doc>")
        db.publish()
        expected = InternPool().serialize_document(
            db.current().document("c", "d1"))

        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with MulticoreGateway(
                    policies, workers=2, shard_count=4, store=db,
                    default_tenant=WIDE_OPEN) as gateway:
                return await collect(gateway.stream_document(
                    "t", "c", "d1", chunk_size=64))

        assert run_async(scenario()) == expected

    def test_killed_process_degrades_typed(self):
        policies = random_policies(random.Random(79), 20)
        requests = random_requests(random.Random(79 + 9000), 20)

        async def scenario():
            async with MulticoreGateway(
                    policies, workers=2, shard_count=4,
                    default_tenant=WIDE_OPEN) as gateway:
                gateway.kill_worker(1)
                futures = [gateway.submit_nowait("t", Request(*request))
                           for request in requests]
                results = await asyncio.gather(*futures,
                                               return_exceptions=True)
                outcomes = []
                for index, result in enumerate(results):
                    shard = gateway.router.shard_for_path(
                        requests[index][2])
                    owner = gateway.worker_for_shard(shard)
                    if owner == 1:
                        assert isinstance(result, ReplicaUnavailable)
                        outcomes.append("err")
                    else:
                        assert not isinstance(result, Exception)
                        outcomes.append("ok")
                return outcomes

        outcomes = run_async(scenario())
        assert "ok" in outcomes and "err" in outcomes


class TestDispatcherLocalStreams:
    """After a dispatcher-side write the forked workers' corpus is
    stale, so streams are served by the inherited single-process
    ``stream()`` — with its pin-release, accounting and per-chunk
    fault check."""

    def make_store(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1", "<doc><a>one</a><b>two</b></doc>")
        db.publish()
        return db

    def run_after_write(self, db, body, **options):
        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with MulticoreGateway(
                    policies, workers=1, shard_count=4, store=db,
                    default_tenant=WIDE_OPEN, **options) as gateway:
                gateway.write(lambda store: store.set_text(
                    "c", "d1", "/doc/a", "edited"))
                result = await body(gateway)
                return result, gateway.stats.snapshot()

        return run_async(scenario())

    def test_post_write_stream_is_byte_identical_to_serialize(self):
        db = self.make_store()

        async def body(gateway):
            return await collect(gateway.stream_document(
                "t", "c", "d1", chunk_size=8))

        text, stats = self.run_after_write(db, body)
        assert text == db.current().serialize("c", "d1")
        assert "edited" in text
        assert db.epochs.stats.acquires == db.epochs.stats.releases == 1
        assert (stats["streams"], stats["completed"], stats["failed"],
                stats["stream_chunks"]) == (1, 1, 0, -(-len(text) // 8))

    def test_stream_closed_before_its_first_chunk_releases_the_pin(self):
        db = self.make_store()

        async def body(gateway):
            stream = gateway.stream_document("t", "c", "d1")
            await stream.aclose()           # never iterated
            with pytest.raises(StopAsyncIteration):
                await stream.__anext__()

        _, stats = self.run_after_write(db, body)
        assert db.epochs.stats.acquires == db.epochs.stats.releases == 1
        assert db.epochs.pins(db.epochs.current_epoch()) == 0
        assert (stats["streams"], stats["completed"], stats["failed"],
                stats["stream_chunks"]) == (1, 0, 1, 0)

    def test_stream_dropped_before_its_first_chunk_releases_the_pin(self):
        db = self.make_store()

        async def body(gateway):
            gateway.stream_document("t", "c", "d1")   # dropped at once
            gateway.write(lambda store: store.set_text(
                "c", "d1", "/doc/a", "next epoch"))

        _, stats = self.run_after_write(db, body)
        assert db.epochs.stats.acquires == db.epochs.stats.releases == 1
        assert db.epochs.retired_epochs() == []     # nothing held back
        assert (stats["completed"], stats["failed"]) == (0, 1)

    def test_chunk_fault_fails_the_stream_typed_and_releases_the_pin(self):
        db = self.make_store()
        plan = FaultPlan()
        plan.add("mcore:stream", 1, FaultKind.CRASH)

        async def body(gateway):
            with pytest.raises(ReplicaUnavailable):
                await collect(gateway.stream_document(
                    "t", "c", "d1", chunk_size=8))

        _, stats = self.run_after_write(db, body,
                                        faults=FaultInjector(plan))
        assert db.epochs.pins(db.epochs.current_epoch()) == 0
        assert (stats["completed"], stats["failed"],
                stats["stream_chunks"]) == (0, 1, 1)

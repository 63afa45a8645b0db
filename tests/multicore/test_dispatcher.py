"""MulticoreGateway in ``workers=0`` deterministic mode.

Every message still round-trips through the frame codec, so these
tests exercise the full dispatcher↔worker protocol — seed handshake,
contiguous deltas, subject interning, batch admission, streaming —
without forking, and with bit-for-bit reproducible outcomes.
"""

import asyncio
import json
import random

import pytest

from repro.core.credentials import anyone, has_role
from repro.core.errors import (
    ConfigurationError,
    Overloaded,
    ReplicaUnavailable,
    SeedMismatch,
    WorkerDiverged,
)
from repro.core.policy import Action, deny, grant
from repro.gateway import TenantConfig, collect
from repro.gateway.engine import EpochalShardRouter
from repro.multicore import MulticoreGateway, RemoteDecision
from repro.scale.gateway import Request
from repro.snap.intern import InternPool
from repro.snap.xmlstore import SnapshotXmlDatabase

from tests.scale.workloads import random_policies, random_requests

WIDE_OPEN = TenantConfig(rate=1e9, burst=1e9)


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_gateway(policies, **kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("logical_workers", 4)
    kwargs.setdefault("auto_dispatch", False)
    kwargs.setdefault("default_tenant", WIDE_OPEN)
    return MulticoreGateway(policies, **kwargs)


async def ask(gateway, request):
    """submit + drain on the caller's task (auto_dispatch is off)."""
    future = gateway.submit_nowait("t", request)
    await gateway.process_pending()
    return future.result()


def decision_bytes(decision) -> bytes:
    return json.dumps({
        "granted": decision.granted,
        "determining": decision.determining.policy_id
        if decision.determining is not None else None,
        "applicable": [p.policy_id for p in decision.applicable],
        "reason": decision.reason,
    }, sort_keys=True).encode()


def reference_decisions(policies, requests):
    """What a plain single-process compiled router answers."""
    router = EpochalShardRouter.from_policies(
        list(policies), shard_count=4)
    out = []
    for subject, action, path, payload in requests:
        shard = router.shard_for_path(path)
        out.append(router.engine(shard).decide_batch(
            [(subject, action, path, payload)])[0])
    return out


class TestLifecycle:
    def test_submit_before_start_is_a_configuration_error(self):
        async def scenario():
            gateway = make_gateway(random_policies(random.Random(0), 10))
            with pytest.raises(ConfigurationError):
                gateway.submit_nowait("t", Request(
                    *random_requests(random.Random(1), 1)[0]))

        run_async(scenario())

    def test_every_shard_is_owned_by_exactly_one_worker(self):
        gateway = make_gateway(random_policies(random.Random(0), 10))
        owned = [shard for worker_id in range(gateway.worker_count)
                 for shard in gateway.owned_shards(worker_id)]
        assert sorted(owned) == list(range(gateway.router.shard_count))


class TestSeedHandshake:
    def test_matching_digests_seed_ok(self):
        async def scenario():
            async with make_gateway(
                    random_policies(random.Random(3), 12)) as gateway:
                assert gateway.live_workers() == [0, 1, 2, 3]

        run_async(scenario())

    def test_digest_mismatch_refuses_at_seed(self):
        """A worker router compiled from *different* policies cannot
        pass the handshake: start() raises typed SeedMismatch and the
        gateway never serves."""
        async def scenario():
            policies = random_policies(random.Random(4), 12)
            impostor = EpochalShardRouter.from_policies(
                random_policies(random.Random(5), 12), shard_count=4)
            gateway = make_gateway(policies, worker_router=impostor)
            with pytest.raises(SeedMismatch):
                await gateway.start()

        run_async(scenario())

    def test_equivalent_but_distinct_policies_also_mismatch(self):
        """Even an identical-looking policy set built from fresh Policy
        objects fails the handshake — digests cover policy ids, the
        identity the wire decisions are expressed in."""
        async def scenario():
            rebuilt = EpochalShardRouter.from_policies(
                [grant(has_role("doctor"), Action.READ, "hospital/**")],
                shard_count=4)
            gateway = make_gateway(
                [grant(has_role("doctor"), Action.READ, "hospital/**")],
                shard_count=4, worker_router=rebuilt)
            with pytest.raises(SeedMismatch):
                await gateway.start()

        run_async(scenario())


class TestEvaluation:
    def test_decisions_byte_identical_to_single_process_router(self):
        policies = random_policies(random.Random(7), 25)
        requests = random_requests(random.Random(7 + 9000), 40)
        expected = [decision_bytes(d)
                    for d in reference_decisions(policies, requests)]

        async def scenario():
            async with make_gateway(policies) as gateway:
                futures = [gateway.submit_nowait("t", Request(*request))
                           for request in requests]
                await gateway.process_pending()
                return [decision_bytes(f.result()) for f in futures]

        assert run_async(scenario()) == expected

    def test_same_seed_same_trace(self):
        """workers=0 is deterministic: identical submissions produce
        identical responses in identical order, twice."""
        policies = random_policies(random.Random(11), 20)
        requests = random_requests(random.Random(11 + 9000), 30)

        def one_run():
            async def scenario():
                async with make_gateway(policies) as gateway:
                    futures = [
                        gateway.submit_nowait("t", Request(*request))
                        for request in requests]
                    await gateway.process_pending()
                    return [decision_bytes(f.result()) for f in futures]

            return run_async(scenario())

        assert one_run() == one_run()

    def test_results_are_remote_decisions(self):
        async def scenario():
            policies = [grant(anyone(), Action.READ, "hospital/**")]
            async with make_gateway(policies) as gateway:
                future = gateway.submit_nowait("t", Request(
                    *random_requests(random.Random(1), 1)[0]))
                await gateway.process_pending()
                return future.result()

        decision = run_async(scenario())
        assert isinstance(decision, RemoteDecision)

    def test_subjects_are_interned_per_worker(self):
        """The first batch mentioning a subject ships it inline; later
        batches reference its integer key only."""
        policies = [grant(anyone(), Action.READ, "**")]
        requests = random_requests(random.Random(2), 12,
                                   subject_count=2)

        async def scenario():
            async with make_gateway(policies) as gateway:
                for request in requests:
                    gateway.submit_nowait("t", Request(*request))
                await gateway.process_pending()
                first_pass = {worker_id: set(acked) for worker_id, acked
                              in enumerate(gateway._acked_subjects)}
                # Same subjects again: no new keys can appear anywhere.
                for request in requests:
                    gateway.submit_nowait("t", Request(*request))
                await gateway.process_pending()
                second_pass = {worker_id: set(acked) for worker_id, acked
                               in enumerate(gateway._acked_subjects)}
                assert second_pass == first_pass
                assert len(gateway._subject_keys) == 2

        run_async(scenario())


class TestDeltas:
    def test_delta_add_changes_decisions_everywhere(self):
        async def scenario():
            subject, action, path, payload = random_requests(
                random.Random(21), 1)[0]
            policies = [deny(anyone(), Action.WRITE, "nowhere")]
            async with make_gateway(policies) as gateway:
                before = await ask(gateway, Request(
                    subject, Action.READ, path, payload))
                assert not before.granted
                await gateway.add_policy(
                    grant(anyone(), Action.READ, "**"))
                after = await ask(gateway, Request(
                    subject, Action.READ, path, payload))
                assert after.granted
                assert gateway.live_workers() == [0, 1, 2, 3]

        run_async(scenario())

    def test_delta_remove_by_policy_object(self):
        async def scenario():
            blanket = grant(anyone(), Action.READ, "**")
            async with make_gateway([blanket]) as gateway:
                subject, _, path, payload = random_requests(
                    random.Random(23), 1)[0]
                assert (await ask(gateway, Request(
                    subject, Action.READ, path, payload))).granted
                await gateway.remove_policy(blanket)
                denied = await ask(gateway, Request(
                    subject, Action.READ, path, payload))
                assert not denied.granted

        run_async(scenario())

    def test_contiguity_gap_is_typed_worker_divergence(self):
        """A skipped version number — the dispatcher's history has a
        hole from the workers' point of view — answers WorkerDiverged,
        retires every worker, and subsequent evaluations keep failing
        with the same type (never stale service)."""
        async def scenario():
            policies = random_policies(random.Random(31), 10)
            async with make_gateway(policies) as gateway:
                gateway._delta_version += 1      # fake a missed delta
                with pytest.raises(WorkerDiverged):
                    await gateway.add_policy(
                        grant(anyone(), Action.READ, "lab/**"))
                assert 0 not in gateway.live_workers()
                future = gateway.submit_nowait(
                    "t", Request(*random_requests(
                        random.Random(32), 1)[0]))
                await gateway.process_pending()
                error = future.exception()
                if error is not None:
                    assert isinstance(error, WorkerDiverged)

        run_async(scenario())

    def test_delta_before_start_is_a_configuration_error(self):
        async def scenario():
            gateway = make_gateway(random_policies(random.Random(0), 5))
            with pytest.raises(ConfigurationError):
                await gateway.add_policy(
                    grant(anyone(), Action.READ, "lab/**"))

        run_async(scenario())


class TestBatchAdmission:
    def test_batch_resolves_in_submission_order(self):
        policies = random_policies(random.Random(41), 20)
        requests = random_requests(random.Random(41 + 9000), 16)
        expected = [decision_bytes(d)
                    for d in reference_decisions(policies, requests)]

        async def scenario():
            async with make_gateway(policies) as gateway:
                gathered = gateway.submit_batch_nowait(
                    "t", [Request(*request) for request in requests])
                await gateway.process_pending()
                return [decision_bytes(d) for d in await gathered]

        assert run_async(scenario()) == expected

    def test_batch_charges_the_bucket_once_for_all_tokens(self):
        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            tight = TenantConfig(rate=1.0, burst=8.0)
            async with make_gateway(policies,
                                    default_tenant=tight) as gateway:
                requests = [Request(*r) for r in random_requests(
                    random.Random(43), 10)]
                with pytest.raises(Overloaded):
                    gateway.submit_batch_nowait("t", requests)
                # Within burst: admitted as one unit.
                gathered = gateway.submit_batch_nowait("t", requests[:8])
                await gateway.process_pending()
                assert len(await gathered) == 8

        run_async(scenario())

    def test_empty_batch_is_a_configuration_error(self):
        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies) as gateway:
                with pytest.raises(ConfigurationError):
                    gateway.submit_batch_nowait("t", [])

        run_async(scenario())


class TestKillWorker:
    def test_killed_workers_shards_fail_typed_others_serve(self):
        policies = random_policies(random.Random(51), 25)
        requests = random_requests(random.Random(51 + 9000), 40)
        expected = [decision_bytes(d)
                    for d in reference_decisions(policies, requests)]

        async def scenario():
            async with make_gateway(policies) as gateway:
                victim = 1
                gateway.kill_worker(victim)
                assert victim not in gateway.live_workers()
                futures = [gateway.submit_nowait("t", Request(*request))
                           for request in requests]
                await gateway.process_pending()
                outcomes = []
                for index, future in enumerate(futures):
                    shard = gateway.router.shard_for_path(
                        requests[index][2])
                    owner = gateway.worker_for_shard(shard)
                    error = future.exception()
                    if owner == victim:
                        assert isinstance(error, ReplicaUnavailable)
                        outcomes.append(None)
                    else:
                        assert error is None
                        outcomes.append(decision_bytes(future.result()))
                return outcomes

        outcomes = run_async(scenario())
        served = [o for o in outcomes if o is not None]
        assert served, "other workers must keep serving"
        for outcome, reference in zip(outcomes, expected):
            if outcome is not None:
                assert outcome == reference


class TestStreaming:
    def make_store(self):
        db = SnapshotXmlDatabase()
        db.create_collection("c")
        db.insert("c", "d1", "<doc>" + "".join(
            f"<rec id=\"{i}\"><v>payload {i}</v></rec>"
            for i in range(20)) + "</doc>")
        db.publish()
        return db

    def test_stream_bytes_identical_to_intern_pool(self):
        db = self.make_store()
        expected = InternPool().serialize_document(
            db.current().document("c", "d1"))

        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies, store=db) as gateway:
                return await collect(gateway.stream_document(
                    "t", "c", "d1", chunk_size=64))

        assert run_async(scenario()) == expected

    def test_stream_after_write_serves_the_new_epoch(self):
        db = self.make_store()

        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies, store=db) as gateway:
                gateway.write(lambda store: store.insert(
                    "c", "d2", "<doc><v>fresh</v></doc>"))
                return await collect(gateway.stream_document(
                    "t", "c", "d2", chunk_size=64))

        text = run_async(scenario())
        assert "fresh" in text

    def test_write_to_an_already_streamed_document_is_not_served_stale(
            self):
        db = self.make_store()

        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies, store=db) as gateway:
                await collect(gateway.stream_document("t", "c", "d1"))
                gateway.write(lambda store: store.set_text(
                    "c", "d1", "/doc/rec[1]/v", "edited"))
                return await collect(
                    gateway.stream_document("t", "c", "d1"))

        assert run_async(scenario()) == db.current().serialize("c", "d1")

    def test_stream_without_store_is_a_configuration_error(self):
        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies) as gateway:
                with pytest.raises(ConfigurationError):
                    gateway.stream_document("t", "c", "d1")

        run_async(scenario())

    def test_repeat_stream_hits_the_worker_chunk_cache(self):
        db = self.make_store()

        async def scenario():
            policies = [grant(anyone(), Action.READ, "**")]
            async with make_gateway(policies, store=db) as gateway:
                first = await collect(gateway.stream_document(
                    "t", "c", "d1", chunk_size=64))
                second = await collect(gateway.stream_document(
                    "t", "c", "d1", chunk_size=64))
                assert first == second
                shard = gateway.router.shard_for_path("c/d1")
                worker = gateway._channels[
                    gateway.worker_for_shard(shard)].worker
                assert ("c", "d1", 64) in worker._chunk_cache

        run_async(scenario())


class TestStats:
    def test_stage_counters_cover_the_pipeline(self):
        policies = random_policies(random.Random(61), 15)
        requests = random_requests(random.Random(61 + 9000), 20)

        async def scenario():
            async with make_gateway(policies) as gateway:
                for request in requests:
                    gateway.submit_nowait("t", Request(*request))
                await gateway.process_pending()
                return gateway.stats.snapshot()

        snapshot = run_async(scenario())
        assert snapshot["completed"] == len(requests)
        assert snapshot["stage_queue_wait_count"] == len(requests)
        assert snapshot["stage_evaluate_count"] >= 1
        assert snapshot["stage_ipc_count"] >= 1

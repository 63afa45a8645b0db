"""The gateway's counters are exact without a lock on the loop path.

One deterministic script on a :class:`ManualClock` drives every path
that writes :class:`GatewayStats`: single and batch submits, bucket,
watermark and hard-limit refusals, a shard group failed by a fault,
a completed and an aborted stream, and a write.  Every ``snapshot()``
counter is pinned exactly, and so is every Retry-After hint: these are
the values the gateway produced when each request still took the stats
lock and two histogram calls, so folding that work per batch changed
no number.  The clock moves in powers of two, so every float sum is
exact whatever order it is added in.
"""

import asyncio
import random

import pytest

from repro.core.errors import AdmissionRejected, Overloaded
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.gateway import (
    AsyncRequestGateway,
    EpochalShardRouter,
    ManualClock,
    TenantConfig,
)
from repro.scale.gateway import Request
from repro.snap.xmlstore import SnapshotXmlDatabase
from tests.scale.workloads import random_policies, random_requests

DOC = "<doc>" + "".join(
    f"<rec id=\"{i}\"><v>value {i}</v></rec>" for i in range(8)) + "</doc>"


def script() -> dict:
    """Run the script; everything it observed, as plain data."""
    rng = random.Random(5)
    router = EpochalShardRouter.from_policies(random_policies(rng, 40),
                                              shard_count=4)
    requests = [Request(*r) for r in random_requests(rng, 40)]
    db = SnapshotXmlDatabase()
    db.create_collection("c")
    db.insert("c", "d1", DOC)
    db.publish()
    # The first group decided for the first request's shard is dropped.
    faulted = router.shard_for_path(requests[0].path)
    plan = FaultPlan().add(f"agateway:shard{faulted}", 0, FaultKind.DROP)
    clock = ManualClock()
    hints: list[tuple[str, float]] = []

    async def scenario():
        gateway = AsyncRequestGateway(
            router, db, clock=clock, faults=FaultInjector(plan),
            auto_dispatch=False, queue_limit=16, high_watermark=8,
            low_watermark=4)
        gateway.register("small", TenantConfig(rate=4.0, burst=2.0))
        gateway.register("bulk", TenantConfig(rate=1e6, burst=1e6))
        gateway.register("vip", TenantConfig(rate=1e6, burst=1e6,
                                             priority=5))
        admitted, futures = [], []
        feed = iter(requests)

        def submit(tenant: str) -> None:
            request = next(feed)
            try:
                futures.append(gateway.submit_nowait(tenant, request))
            except Overloaded as refusal:
                hints.append((refusal.reason, refusal.retry_after))
            else:
                admitted.append(request)

        clock.advance(0.5)
        for _ in range(3):                 # the third finds no token
            submit("small")
        clock.advance(0.25)
        batch = [next(feed) for _ in range(3)]
        futures.append(gateway.submit_batch_nowait("bulk", batch))
        admitted += batch
        first = list(admitted)
        clock.advance(0.25)
        await gateway.process_pending()
        clock.advance(1.0)
        for _ in range(9):                 # the ninth meets the watermark
            submit("bulk")
        submit("vip")                      # its tier is still admitted
        with pytest.raises(AdmissionRejected):
            gateway.submit_batch_nowait("vip", requests[:16])
        clock.advance(0.125)
        await gateway.process_pending()
        clock.advance(0.0625)
        async for _ in gateway.stream_document("vip", "c", "d1",
                                               chunk_size=64):
            pass
        aborted = gateway.stream_document("vip", "c", "d1", chunk_size=64)
        await aborted.__anext__()
        clock.advance(0.0625)
        await aborted.aclose()
        gateway.write(lambda store: store.set_text(
            "c", "d1", "/doc/rec[1]/v", "edited"))
        await asyncio.gather(*futures, return_exceptions=True)
        dropped = sum(1 for request in first
                      if router.shard_for_path(request.path) == faulted)
        return {
            "snapshot": gateway.stats.snapshot(),
            "hints": hints,
            "latency_count": gateway.stats.latency.count,
            "queue_wait_count": gateway.stats.stage("queue_wait").count,
            "decided": len(admitted) - dropped,
            "dequeued": len(admitted),
        }

    return asyncio.run(scenario())


#: What the script observed when every counter update took the lock:
#: 14 requests dequeued in 2 batches (4 shard groups), 2 of them in the
#: dropped group; 12 decided; one stream completed, one aborted.
EXPECTED_SNAPSHOT = {
    "admitted": 16, "rejected": 1, "shed": 2, "completed": 13,
    "failed": 3, "batches": 2, "queue_wait_s": 2.875, "evaluate_s": 0.0,
    "snapshot_reads": 2, "writes": 1, "epochs_advanced": 1, "streams": 2,
    "stream_chunks": 6, "replica_reads": 0, "replica_writes": 0,
    "latency_count": 12, "latency_mean_s": 0.177083,
    "latency_p50_s": 0.126976, "latency_p99_s": 0.507904,
    "latency_p999_s": 0.507904,
    "stage_evaluate_count": 4, "stage_evaluate_mean_s": 0.0,
    "stage_evaluate_p50_s": 1e-06, "stage_evaluate_p99_s": 1e-06,
    "stage_evaluate_p999_s": 1e-06,
    "stage_queue_wait_count": 14, "stage_queue_wait_mean_s": 0.205357,
    "stage_queue_wait_p50_s": 0.126976, "stage_queue_wait_p99_s": 0.507904,
    "stage_queue_wait_p999_s": 0.507904,
    "stage_stream_count": 1, "stage_stream_mean_s": 0.0,
    "stage_stream_p50_s": 1e-06, "stage_stream_p99_s": 1e-06,
    "stage_stream_p999_s": 1e-06,
}
#: Bucket: no token until 1/rate; watermark: (depth 8 - low 4) over the
#: cumulative drain rate, 3 decided in the first 2 s.
EXPECTED_HINTS = [("bucket", 0.25), ("watermark", 4 / (3 / 2.0))]


def test_every_counter_and_hint_is_exact():
    observed = script()
    assert observed["snapshot"] == EXPECTED_SNAPSHOT
    assert observed["hints"] == EXPECTED_HINTS


def test_histograms_count_each_request_once():
    observed = script()
    assert observed["latency_count"] == observed["decided"]
    assert observed["queue_wait_count"] == observed["dequeued"]

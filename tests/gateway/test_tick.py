"""The tick contract: one loop callback per batch.

Counted in loop turns and batches, never in time.  A probe chained
through ``call_soon`` runs once per loop turn, after whatever the
gateway scheduled before it, so it sees the gateway exactly between
ticks: a batch is decided inside the turn its tick runs, and a backlog
gives the loop back between consecutive batches.
"""

import asyncio
import random

import pytest

from repro.gateway import AsyncRequestGateway, EpochalShardRouter
from repro.scale.gateway import Request
from tests.gateway.driver import WIDE_OPEN
from tests.scale.workloads import random_policies, random_requests

POLICIES = random_policies(random.Random(21), 30)
REQUESTS = [Request(*r) for r in random_requests(random.Random(22), 48)]


def gateway(**options) -> AsyncRequestGateway:
    return AsyncRequestGateway(
        EpochalShardRouter.from_policies(POLICIES, shard_count=4),
        default_tenant=WIDE_OPEN, **options)


def turns_until(predicate) -> asyncio.Future:
    """Resolves to the loop turn (1 = the next one) on which
    *predicate* first holds, checked at the end of each turn's work
    scheduled so far."""
    loop = asyncio.get_running_loop()
    landed = loop.create_future()

    def probe(turn: int) -> None:
        if predicate():
            landed.set_result(turn)
        else:
            loop.call_soon(probe, turn + 1)

    loop.call_soon(probe, 1)
    return landed


def test_a_lone_submit_resolves_on_the_first_turn():
    async def scenario():
        async with gateway() as front:
            future = front.submit_nowait("t", REQUESTS[0])
            return await turns_until(future.done)

    assert asyncio.run(scenario()) == 1


@pytest.mark.parametrize("submitters", [1, 7, 64])
def test_submitters_of_one_turn_share_one_batch(submitters):
    async def scenario():
        async with gateway(batch_size=64) as front:
            await asyncio.gather(*[front.submit("t", request) for request
                                   in (REQUESTS * 2)[:submitters]])
            return front.stats.batches

    assert asyncio.run(scenario()) == 1


def test_a_backlog_gives_the_loop_back_between_batches():
    async def scenario():
        async with gateway(batch_size=16) as front:
            futures = [front.submit_nowait("t", request)
                       for request in REQUESTS]
            seen = []

            def all_done() -> bool:
                seen.append(front.stats.batches)
                return all(future.done() for future in futures)

            turns = await turns_until(all_done)
            return turns, seen

    assert asyncio.run(scenario()) == (3, [1, 2, 3])


def test_a_raising_decide_fails_its_batch_closed():
    error = RuntimeError("decide broke")

    class Broken(AsyncRequestGateway):
        def _decide(self, batch):
            batch[0][1].set_result("decided")   # one resolved, then a bug
            raise error

    async def scenario():
        front = Broken(EpochalShardRouter.from_policies(POLICIES),
                       batch_size=4, default_tenant=WIDE_OPEN)
        futures = [front.submit_nowait("t", request)
                   for request in REQUESTS[:8]]
        outcomes = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout=30)
        await front.close()
        return outcomes, front.stats.snapshot()

    outcomes, stats = asyncio.run(scenario())
    assert [o for o in outcomes if o == "decided"] == ["decided"] * 2
    assert [o for o in outcomes if o != "decided"] == [error] * 6
    assert (stats["batches"], stats["failed"]) == (2, 6)

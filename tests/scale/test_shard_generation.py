"""Shard-aware staleness of the compiled policy tables.

The regression this file pins down: with one global generation counter,
a policy write anywhere stales every warm decision cell.  The sharded
policy router avoids that by construction: a write republishes (and
recompiles) only the shards it lands on, so every other shard's warm
decision table keeps answering.
"""

from repro.core.policy import Action, grant
from repro.datagen.population import generate_population
from repro.gateway.engine import EpochalShardRouter


def distinct_shard_heads(router: EpochalShardRouter,
                         count: int) -> list[tuple[int, str]]:
    """(shard, head) pairs landing on *count* different shards."""
    chosen: dict[int, str] = {}
    i = 0
    while len(chosen) < count:
        head = f"zone{i}"
        shard = router.shard_for_path(f"{head}/x")
        if shard not in chosen:
            chosen[shard] = head
        i += 1
    return list(chosen.items())


def table_of(router: EpochalShardRouter, shard: int):
    return router.publication[shard].table


class TestWarmCacheSurvivesOtherShardWrites:
    def test_engine_write_stales_only_its_own_shard(self):
        router = EpochalShardRouter(shard_count=4)
        (shard_a, head_a), (shard_b, head_b) = \
            distinct_shard_heads(router, 2)
        router.add(grant(None, Action.READ, f"{head_a}/**"))
        router.add(grant(None, Action.READ, f"{head_b}/**"))
        subject = generate_population(2, seed=0).get("user00000")
        path_a, path_b = f"{head_a}/records/r1", f"{head_b}/records/r1"
        warm_a = router.decide(subject, Action.READ, path_a)
        warm_b = router.decide(subject, Action.READ, path_b)

        table_a = table_of(router, shard_a)
        table_b = table_of(router, shard_b)
        filled_b = table_b.stats().cells_filled
        router.add(grant(None, Action.WRITE, f"{head_a}/private/**"))
        assert table_of(router, shard_a) is not table_a
        assert table_of(router, shard_b) is table_b

        # Shard B's warm cell survives the shard-A write ...
        assert router.decide(subject, Action.READ, path_b) == warm_b
        assert table_b.stats().cells_filled == filled_b
        # ... while shard A (correctly) answers from a fresh table.
        fresh_a = table_of(router, shard_a)
        assert fresh_a.stats().cells_filled == 0
        assert router.decide(subject, Action.READ, path_a) == warm_a
        assert fresh_a.stats().cells_filled == 1

    def test_monolithic_contrast_global_stamp_stales_everything(self):
        subject = generate_population(2, seed=0).get("user00000")
        router = EpochalShardRouter.from_policies(
            [grant(None, Action.READ, "zone0/**"),
             grant(None, Action.READ, "zone1/**")], shard_count=1)
        warm = router.decide(subject, Action.READ, "zone1/records/r1")
        # A write about zone0 — unrelated to the warm zone1 cell.
        router.add(grant(None, Action.WRITE, "zone0/private/**"))
        fresh = table_of(router, 0)
        assert fresh.stats().cells_filled == 0
        assert router.decide(subject, Action.READ,
                             "zone1/records/r1") == warm
        assert fresh.stats().cells_filled == 1  # staled: refilled

    def test_broadcast_write_stales_every_shard(self):
        router = EpochalShardRouter(shard_count=4)
        tables = [table_of(router, i) for i in range(4)]
        router.add(grant(None, Action.READ, "**"))
        assert all(table_of(router, i) is not tables[i]
                   for i in range(4))


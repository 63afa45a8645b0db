"""Sharded, epoch-published, *compiled* authorization for the gateway.

:class:`EpochalShardRouter` composes the three layers the async
gateway's pipeline rides on:

* routing — the same literal-head consistent-hash placement as
  :class:`~repro.scale.engine.ShardedPolicyEngine` (glob-headed
  policies broadcast to every shard, a path is decided entirely by its
  head's owner), so ``shard_for_path`` gives the gateway its per-shard
  fault sites and batch groups;
* epochs — each shard is an
  :class:`~repro.snap.policy.EpochalPolicyEngine`: reads pin a
  published snapshot, writes freeze-and-publish a new epoch, so the
  event loop never blocks on a writer lock;
* compilation — with ``compile_policies=True`` (the default) every
  published shard snapshot carries a
  :class:`~repro.compile.engine.CompiledPolicyEngine`: admission
  batches resolve against flat O(1) decision tables, with the
  interpreter transparently covering residual (content-dependent)
  cells.

Answers are identical to a monolithic serial evaluator over the same
policies — the sharding equivalence is the scale layer's property, the
compiled-table equivalence is the compile layer's verified theorem, and
the gateway chaos battery re-asserts the composition end to end.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.audit import AuditLog
from repro.core.evaluator import (
    ConflictResolution,
    Decision,
    DefaultDecision,
)
from repro.core.objects import ResourcePath
from repro.core.policy import Action, Policy
from repro.core.subjects import Subject
from repro.perf.cache import MISS, LRUCache
from repro.scale.engine import is_broadcast, _pattern_head
from repro.scale.router import ConsistentHashRouter
from repro.snap.policy import EpochalPolicyEngine


class EpochalShardRouter:
    """N compiled epochal policy engines behind one gateway surface."""

    def __init__(self, shard_count: int = 4,
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None,
                 compile_policies: bool = True) -> None:
        self.router = ConsistentHashRouter(shard_count)
        self.shard_count = shard_count
        self.compile_policies = compile_policies
        self._engines = tuple(
            EpochalPolicyEngine(resolution=resolution, default=default,
                                audit=audit,
                                compile_policies=compile_policies)
            for _ in range(shard_count))
        # Placement depends only on the ring, which is fixed at
        # construction — path->shard answers never go stale, so a
        # plain LRU memo elides the sha256 ring walk on hot paths.
        self._shard_memo = LRUCache(maxsize=65536)

    # -- routing ----------------------------------------------------------

    def shard_for_path(self, path: ResourcePath | str) -> int:
        text = str(path)
        shard = self._shard_memo.get(text)
        if shard is MISS:
            parsed = ResourcePath(path)
            head = parsed.segments[0] if parsed.segments else ""
            shard = self.router.shard_for(head)
            self._shard_memo.put(text, shard)
        return shard

    def shards_for_policy(self, policy: Policy) -> tuple[int, ...]:
        if is_broadcast(policy):
            return tuple(range(self.shard_count))
        return (self.router.shard_for(_pattern_head(policy)),)

    def engine(self, shard: int):
        return self._engines[shard]

    # -- policy administration (writer side) ------------------------------

    def add(self, policy: Policy) -> Policy:
        for shard in self.shards_for_policy(policy):
            self._engines[shard].add_policy(policy)
        return policy

    def load(self, policies: Iterable[Policy]) -> int:
        """Bulk-load: route every policy, publish one epoch per shard.

        Publication compiles, so seeding N policies through
        :meth:`add` would compile each shard N times; this compiles
        each shard exactly once.
        """
        per_shard: list[list[Policy]] = [[] for _ in
                                         range(self.shard_count)]
        count = 0
        for policy in policies:
            count += 1
            for shard in self.shards_for_policy(policy):
                per_shard[shard].append(policy)
        for shard, batch in enumerate(per_shard):
            self._engines[shard].add_policies(batch)
        return count

    def remove(self, policy: Policy) -> None:
        for shard in self.shards_for_policy(policy):
            self._engines[shard].remove_policy(policy)

    def policies(self) -> Iterator[Policy]:
        seen: set[int] = set()
        collected: list[Policy] = []
        for engine in self._engines:
            for policy in engine.base:
                if policy.policy_id not in seen:
                    seen.add(policy.policy_id)
                    collected.append(policy)
        return iter(sorted(collected, key=lambda p: p.policy_id))

    def __len__(self) -> int:
        return sum(1 for _ in self.policies())

    # -- evaluation (reader side) -----------------------------------------

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision:
        shard = self.shard_for_path(path)
        return self._engines[shard].decide(subject, action, path, payload)

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """Partition by shard, decide each sub-batch against that
        shard's pinned snapshot, reassemble in input order."""
        by_shard: dict[int, list[int]] = {}
        for index, request in enumerate(requests):
            by_shard.setdefault(
                self.shard_for_path(request[2]), []).append(index)
        results: list[Decision | None] = [None] * len(requests)
        for shard in sorted(by_shard):
            indices = by_shard[shard]
            decisions = self._engines[shard].decide_batch(
                [requests[i] for i in indices])
            for index, decision in zip(indices, decisions):
                results[index] = decision
        return [d for d in results if d is not None]

    # -- telemetry --------------------------------------------------------

    def epoch_stats(self) -> list[dict[str, int]]:
        return [engine.epochs.stats.snapshot()
                for engine in self._engines]

    @classmethod
    def from_policies(cls, policies: Iterable[Policy],
                      shard_count: int = 4,
                      **kwargs) -> "EpochalShardRouter":
        router = cls(shard_count=shard_count, **kwargs)
        router.load(policies)
        return router

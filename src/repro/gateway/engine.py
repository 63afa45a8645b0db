"""Sharded, epoch-published, compiled authorization for the gateway.

:class:`EpochalShardRouter` is the fast-path implementation of the
:class:`~repro.core.evaluator.Authorizer` contract (the cache-free
:class:`~repro.core.evaluator.PolicyEvaluator` is the other, and the
oracle).  It composes:

* routing — a policy whose pattern head is a literal lives on the
  consistent-hash owner of that head; a glob-headed policy can reach any
  path, so it is broadcast to every shard; a request is decided entirely
  by the shard owning its path's head, which by that rule holds exactly
  the candidates a monolithic policy base would return.
  ``shard_for_path`` gives the gateway its per-shard fault sites and
  batch groups;
* epochs and compilation — each shard is an
  :class:`~repro.snap.policy.EpochalPolicyEngine`: a write freezes,
  compiles and publishes a new epoch, a read pins one and looks its
  answer up in that epoch's decision table, so the event loop never
  blocks on a writer lock.

Answers — decisions and audit rows — equal the interpreter's serial loop
over the same policies; the tier-1 oracles check that across
resolutions, defaults, payloads and shard counts, and the gateway chaos
battery re-asserts it end to end.
"""

from __future__ import annotations

from functools import lru_cache, partial
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
from repro.scale.router import ConsistentHashRouter
from repro.snap.policy import EpochalPolicyEngine

_GLOB_CHARS = "*?["


def _pattern_head(policy: Policy) -> str:
    segments = policy.resource.segments
    return segments[0] if segments else "**"


def is_broadcast(policy: Policy) -> bool:
    """True when the policy's pattern head is a glob, so the policy can
    match paths under any head and must live on every shard."""
    head = _pattern_head(policy)
    return any(ch in head for ch in _GLOB_CHARS)


def _place(ring: ConsistentHashRouter, path: ResourcePath | str) -> int:
    """The shard owning *path*'s head on *ring*."""
    parsed = ResourcePath(path)
    return ring.shard_for(parsed.segments[0] if parsed.segments else "")


class EpochalShardRouter:
    """N compiled epochal policy engines behind one gateway surface."""

    def __init__(self, shard_count: int = 4,
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None) -> None:
        self.router = ConsistentHashRouter(shard_count)
        self.shard_count = shard_count
        self._engines = tuple(
            EpochalPolicyEngine(resolution=resolution, default=default,
                                audit=audit)
            for _ in range(shard_count))
        # Placement depends only on the ring, which is fixed at
        # construction — path->shard answers never go stale, so a
        # lock-free C memo elides the path parse and the sha256 ring
        # walk on hot paths.  It holds the ring, not this router, so a
        # dropped router is freed at once rather than by the collector.
        self.shard_for_path = lru_cache(maxsize=65536)(
            partial(_place, self.router))

    # -- routing ----------------------------------------------------------

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
        """The serial loop over :meth:`decide`: decisions and audit rows
        in input order.  The gateway, which has already grouped a batch
        by shard, calls ``engine(shard).decide_batch`` instead — one
        pinned epoch per group."""
        return [self.decide(*request) for request in requests]

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

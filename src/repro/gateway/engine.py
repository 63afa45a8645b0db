"""Sharded, compiled authorization for the gateway.

:class:`EpochalShardRouter` is the fast-path implementation of the
:class:`~repro.core.evaluator.Authorizer` contract (the cache-free
:class:`~repro.core.evaluator.PolicyEvaluator` is the other, and the
oracle).  It composes:

* routing — a policy lives on the consistent-hash owner of its
  :func:`~repro.core.policy.index_head`; a glob-headed policy can reach
  any path, so it is broadcast to every shard; a request is decided
  entirely by the shard owning its path's head, which by that rule holds
  exactly the candidates a monolithic policy base would return.
  ``shard_for_path`` gives the gateway its per-shard fault sites and
  batch groups;
* publication — the router holds one immutable value,
  :attr:`~EpochalShardRouter.publication`: per shard, its policy tuple
  and the :class:`~repro.compile.table.CompiledPolicy` compiled from
  exactly that tuple.  A change (``add``, ``remove``, ``load``)
  recompiles only the shards it routes to and swaps the next value in
  once, under the writer lock, advancing ``epoch`` by one; every other
  shard keeps its table object.  Readers take no lock and no pin: a
  decision or batch reads the value once, and a superseded table,
  having nothing to release, lives as long as someone still reads it.

Each shard's table is compiled from its policy set alone, so its digest
is the same whatever order of adds and removes reached that set.
Answers — decisions and audit rows — equal the interpreter's serial loop
over the same policies; the tier-1 oracles check that across
resolutions, defaults, payloads and shard counts, and the gateway chaos
battery re-asserts it end to end.
"""

from __future__ import annotations

import threading
from functools import lru_cache, partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.compile.table import CompiledPolicy, compile_policy_base
from repro.core.audit import AuditLog
from repro.core.errors import ConfigurationError
from repro.core.evaluator import (
    ConflictResolution,
    Decision,
    DefaultDecision,
    audit_decision,
)
from repro.core.objects import ResourcePath
from repro.core.policy import GLOB_HEAD, Action, Policy, index_head
from repro.core.subjects import Subject
from repro.scale.router import ConsistentHashRouter


def is_broadcast(policy: Policy) -> bool:
    """True when the policy's pattern head is a glob, so the policy can
    match paths under any head and must live on every shard."""
    return index_head(policy) == GLOB_HEAD


def _place(ring: ConsistentHashRouter, path: ResourcePath | str) -> int:
    """The shard owning *path*'s head on *ring*."""
    parsed = ResourcePath(path)
    return ring.shard_for(parsed.segments[0] if parsed.segments else "")


class ShardTable(NamedTuple):
    """One shard of a publication."""

    policies: tuple[Policy, ...]
    table: CompiledPolicy


class ShardEngine:
    """One shard's decisions against the router's current publication.

    :meth:`EpochalShardRouter.engine` hands out the same object for the
    router's whole life, so a caller may hold it across publications.
    """

    def __init__(self, published: list, shard: int,
                 audit: AuditLog | None) -> None:
        self._published = published
        self.shard = shard
        self.audit = audit

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """Decide every request against one publication's table;
        decisions and audit rows in input order."""
        decide = self._published[0][self.shard].table.decide
        audit = self.audit
        decisions: list[Decision] = []
        for request in requests:
            decision = decide(*request)
            decisions.append(decision)
            if audit is not None:
                audit_decision(audit, request[0], request[1], request[2],
                               decision)
        return decisions


def _without(policies: tuple[Policy, ...],
             policy: Policy) -> tuple[Policy, ...]:
    """*policies* minus its first element equal to *policy*."""
    index = policies.index(policy)
    return policies[:index] + policies[index + 1:]


class EpochalShardRouter:
    """N compiled policy shards behind one gateway surface."""

    def __init__(self, shard_count: int = 4,
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None) -> None:
        self.router = ConsistentHashRouter(shard_count)
        self.shard_count = shard_count
        self.resolution = resolution
        self.default = default
        self._lock = threading.Lock()
        self.epoch = 0
        empty = ShardTable((), self._compile(()))
        # A one-slot box the shard engines share with the router (and
        # not the router itself), so a dropped router is freed at once
        # rather than by the collector.
        self._published = [(empty,) * shard_count]
        self._engines = tuple(ShardEngine(self._published, shard, audit)
                              for shard in range(shard_count))
        # Placement depends only on the ring, which is fixed at
        # construction — path->shard answers never go stale, so a
        # lock-free C memo elides the path parse and the sha256 ring
        # walk on hot paths.  It holds the ring, not this router.
        self.shard_for_path = lru_cache(maxsize=65536)(
            partial(_place, self.router))

    @property
    def publication(self) -> tuple[ShardTable, ...]:
        """The current value: one :class:`ShardTable` per shard."""
        return self._published[0]

    # -- routing ----------------------------------------------------------

    def shards_for_policy(self, policy: Policy) -> tuple[int, ...]:
        if is_broadcast(policy):
            return tuple(range(self.shard_count))
        return (self.router.shard_for(index_head(policy)),)

    def engine(self, shard: int) -> ShardEngine:
        return self._engines[shard]

    # -- policy administration (writer side) ------------------------------

    def _compile(self, policies: tuple[Policy, ...]) -> CompiledPolicy:
        return compile_policy_base(policies, resolution=self.resolution,
                                   default=self.default)

    def _publish(self, changed: dict[int, tuple[Policy, ...]]) -> None:
        """Compile the *changed* shards and swap in the next value.
        Call with the writer lock held."""
        shards = list(self.publication)
        for shard, policies in changed.items():
            shards[shard] = ShardTable(policies, self._compile(policies))
        self._published[0] = tuple(shards)
        self.epoch += 1

    def add(self, policy: Policy) -> Policy:
        with self._lock:
            current = self.publication
            self._publish({shard: current[shard].policies + (policy,)
                           for shard in self.shards_for_policy(policy)})
        return policy

    def load(self, policies: Iterable[Policy]) -> int:
        """Bulk-load: route every policy, compile each touched shard
        once, publish once."""
        with self._lock:
            current = self.publication
            added: dict[int, list[Policy]] = {}
            count = 0
            for policy in policies:
                count += 1
                for shard in self.shards_for_policy(policy):
                    added.setdefault(shard, []).append(policy)
            self._publish({shard: current[shard].policies + tuple(batch)
                           for shard, batch in added.items()})
        return count

    def remove(self, policy: Policy) -> None:
        """Drop the first policy equal to *policy* from every shard it
        routes to — membership and removal use the same test, as in
        :meth:`PolicyBase.remove <repro.core.policy.PolicyBase.remove>`.
        Absent from any of them, nothing is published."""
        with self._lock:
            current = self.publication
            shards = self.shards_for_policy(policy)
            if any(policy not in current[shard].policies
                   for shard in shards):
                raise ConfigurationError(f"{policy!r} not in policy base")
            self._publish({shard: _without(current[shard].policies, policy)
                           for shard in shards})

    def policies(self) -> Iterator[Policy]:
        seen: set[int] = set()
        collected: list[Policy] = []
        for shard in self.publication:
            for policy in shard.policies:
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
        shard = self._engines[self.shard_for_path(path)]
        return shard.decide_batch([(subject, action, path, payload)])[0]

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """The serial loop over :meth:`decide`: decisions and audit rows
        in input order.  The gateway, which has already grouped a batch
        by shard, calls ``engine(shard).decide_batch`` instead — one
        publication per group."""
        return [self.decide(*request) for request in requests]

    @classmethod
    def from_policies(cls, policies: Iterable[Policy],
                      shard_count: int = 4,
                      **kwargs) -> "EpochalShardRouter":
        router = cls(shard_count=shard_count, **kwargs)
        router.load(policies)
        return router

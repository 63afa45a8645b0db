"""Persistent policy bases and the epoch-published compiled engine.

:class:`SnapshotPolicyBase` keeps the same state as
:class:`~repro.core.policy.PolicyBase` — an ordered policy sequence plus
the action/head candidate index — but in persistent form: the sequence
is a tuple and the index buckets are tuples inside copy-on-write dicts.
An ``add``/``remove`` rebuilds only the touched action's head map (every
other bucket is shared by reference), so :meth:`freeze` is O(1): it just
captures the current references into an immutable
:class:`PolicySnapshot`.

:class:`PolicySnapshot` duck-types the evaluator-facing surface of
``PolicyBase`` (``candidates`` / ``applicable`` / ``generation`` /
iteration), so the interpreter
(:class:`~repro.core.evaluator.PolicyEvaluator`) and the compiler
(:func:`~repro.compile.table.compile_policy_base`) both run against it.

:class:`EpochalPolicyEngine` ties it to :mod:`repro.snap.epoch`: every
mutation freezes, compiles and publishes a new epoch, and every read
pins the current epoch for exactly one decision or batch.  The snapshot
is immutable, so its :class:`~repro.compile.table.CompiledPolicy` is
fresh for the epoch's whole lifetime — publication *is* recompilation,
and a read is a table lookup with no freshness check.  The engine is
the per-shard half of the compiled
:class:`~repro.core.evaluator.Authorizer`; its ``decide_batch`` is what
:class:`~repro.gateway.core.AsyncRequestGateway` calls per shard group.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

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
from repro.core.policy import Action, Policy
from repro.core.subjects import Subject
from repro.snap.epoch import EpochManager

#: action -> head -> tuple of policies (the persistent candidate index).
HeadIndex = dict


def _head_of(policy: Policy) -> str:
    """First-segment index key, identical to PolicyBase's rule."""
    head = (policy.resource.segments[0]
            if policy.resource.segments else "**")
    if any(ch in head for ch in "*?["):
        head = "*"
    return head


def _without(policies: tuple[Policy, ...],
             policy: Policy) -> tuple[Policy, ...]:
    """*policies* minus its first element equal to *policy*."""
    index = policies.index(policy)
    return policies[:index] + policies[index + 1:]


def _candidates(by_head: HeadIndex, action: Action,
                path: ResourcePath | str) -> list[Policy]:
    path = ResourcePath(path)
    index = by_head[action]
    result: list[Policy] = list(index.get("*", ()))
    result.extend(index.get("**", ()))
    if path.segments:
        result.extend(index.get(path.segments[0], ()))
    result.sort(key=lambda p: p.policy_id)
    return result


class PolicySnapshot:
    """An immutable policy base frozen at one generation.

    Duck-types :class:`~repro.core.policy.PolicyBase` for evaluation;
    mutation methods intentionally do not exist.  ``epoch`` is assigned
    by the :class:`~repro.snap.epoch.EpochManager` at publication;
    ``table`` (the snapshot's compiled decision table) by
    :class:`EpochalPolicyEngine`.
    """

    def __init__(self, policies: tuple[Policy, ...],
                 by_head: HeadIndex, generation: int) -> None:
        self._policies = policies
        self._by_head = by_head
        self.generation = generation
        self.epoch: int | None = None
        self.table: CompiledPolicy | None = None

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies)

    def candidates(self, action: Action,
                   path: ResourcePath | str) -> list[Policy]:
        return _candidates(self._by_head, action, path)

    def applicable(self, subject: Subject, action: Action,
                   path: ResourcePath | str,
                   payload: object = None) -> list[Policy]:
        return [p for p in self.candidates(action, path)
                if p.applies(subject, action, path, payload)]

    def __repr__(self) -> str:
        return (f"<PolicySnapshot gen={self.generation} "
                f"epoch={self.epoch} policies={len(self._policies)}>")


class SnapshotPolicyBase:
    """Writer-side policy store with O(1) :meth:`freeze`.

    Mutations are serialized by an internal lock and rebuild only the
    copy-on-write spine of the candidate index — the one action map and
    the one head bucket being touched; everything else is shared with
    every outstanding snapshot.
    """

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self._lock = threading.RLock()
        self._policies: tuple[Policy, ...] = ()
        self._by_head: HeadIndex = {a: {} for a in Action}
        self.generation = 0
        for policy in policies:
            self.add(policy)

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies)

    def add(self, policy: Policy) -> Policy:
        with self._lock:
            head = _head_of(policy)
            action_map = dict(self._by_head[policy.action])
            action_map[head] = action_map.get(head, ()) + (policy,)
            by_head = dict(self._by_head)
            by_head[policy.action] = action_map
            self._policies = self._policies + (policy,)
            self._by_head = by_head
            self.generation += 1
        return policy

    def remove(self, policy: Policy) -> None:
        """Drop the first policy equal to *policy*, as
        :meth:`PolicyBase.remove <repro.core.policy.PolicyBase.remove>`
        does: membership and removal use the same test."""
        with self._lock:
            if policy not in self._policies:
                raise ConfigurationError(
                    f"{policy!r} not in policy base")
            head = _head_of(policy)
            action_map = dict(self._by_head[policy.action])
            action_map[head] = _without(action_map[head], policy)
            by_head = dict(self._by_head)
            by_head[policy.action] = action_map
            self._policies = _without(self._policies, policy)
            self._by_head = by_head
            self.generation += 1

    def candidates(self, action: Action,
                   path: ResourcePath | str) -> list[Policy]:
        return _candidates(self._by_head, action, path)

    def applicable(self, subject: Subject, action: Action,
                   path: ResourcePath | str,
                   payload: object = None) -> list[Policy]:
        return [p for p in self.candidates(action, path)
                if p.applies(subject, action, path, payload)]

    def freeze(self) -> PolicySnapshot:
        """Capture the current state — three reference reads, O(1)."""
        with self._lock:
            return PolicySnapshot(self._policies, self._by_head,
                                  self.generation)


class EpochalPolicyEngine:
    """Lock-free compiled authorization: reads pin an epoch, writes
    advance it.

    Each published snapshot carries its compiled table, so worker
    threads never contend on writer state; ``decide``/``decide_batch``
    read the pinned table directly and record audit rows in the same
    loop, in request order.
    """

    def __init__(self, policies: Iterable[Policy] = (),
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None,
                 epochs: EpochManager | None = None) -> None:
        self.base = SnapshotPolicyBase(policies)
        self.resolution = resolution
        self.default = default
        self.audit = audit
        self.epochs = epochs if epochs is not None else EpochManager()
        self._publish()

    def _publish(self) -> PolicySnapshot:
        snapshot = self.base.freeze()
        snapshot.table = compile_policy_base(
            snapshot, resolution=self.resolution, default=self.default)
        self.epochs.publish(snapshot)
        return snapshot

    # -- writer side -----------------------------------------------------

    def add_policy(self, policy: Policy) -> Policy:
        self.base.add(policy)
        self._publish()
        return policy

    def add_policies(self, policies: Iterable[Policy]) -> int:
        """Bulk load: add every policy, then publish *one* epoch.

        Publication is where snapshots compile, so N ``add_policy``
        calls pay N compilations while this pays one — the difference
        between O(N²) and O(N) total work when seeding a large base.
        Publishes even for an empty iterable (cheap, and keeps the
        "every writer call advances the epoch" invariant).
        """
        count = 0
        for policy in policies:
            self.base.add(policy)
            count += 1
        self._publish()
        return count

    def remove_policy(self, policy: Policy) -> None:
        self.base.remove(policy)
        self._publish()

    # -- reader side -----------------------------------------------------

    def current(self) -> PolicySnapshot:
        return self.epochs.current()

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision:
        return self.decide_batch([(subject, action, path, payload)])[0]

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """Decide every request against one pinned epoch's table;
        decisions and audit rows in input order."""
        audit = self.audit
        decisions: list[Decision] = []
        with self.epochs.reading() as snapshot:
            decide = snapshot.table.decide
            for request in requests:
                decision = decide(*request)
                decisions.append(decision)
                if audit is not None:
                    audit_decision(audit, request[0], request[1],
                                   request[2], decision)
        return decisions

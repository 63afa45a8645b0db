"""Persistent policy bases and the epoch-published decision engine.

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
iteration), so an unmodified
:class:`~repro.core.evaluator.PolicyEvaluator` and
:class:`~repro.scale.batch.BatchDecisionEngine` run against it.  Its
generation is the stamp frozen at capture time and never changes, which
turns the evaluator's generation-checked decision cache into a pure
cache: entries computed against a snapshot are valid for that
snapshot's whole lifetime.

:class:`EpochalPolicyEngine` ties it to :mod:`repro.snap.epoch`: every
mutation freezes and publishes a new epoch (whose snapshot carries its
own evaluator + batch engine), and every read pins the current epoch
for exactly one decision or batch.  It satisfies the gateway's engine
contract (``decide_batch``), making the lock-free read path a drop-in
engine for :class:`~repro.gateway.core.AsyncRequestGateway`.

With ``compile_policies=True`` each published snapshot carries a
:class:`~repro.compile.engine.CompiledPolicyEngine` instead of the
interpreting batch engine: the snapshot is immutable, so the compiled
decision table is fresh for the epoch's whole lifetime and every read
is an O(1) table lookup.  Recompilation piggybacks on publication —
there is no drift to detect because a new epoch is a new artifact.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from repro.core.audit import AuditLog
from repro.core.errors import ConfigurationError
from repro.core.evaluator import (
    ConflictResolution,
    Decision,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.objects import ResourcePath
from repro.core.policy import Action, Policy
from repro.core.subjects import Subject
from repro.perf.cache import Generation
from repro.scale.batch import BatchDecisionEngine
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
    ``evaluator``/``engine`` by :class:`EpochalPolicyEngine`.
    """

    def __init__(self, policies: tuple[Policy, ...],
                 by_head: HeadIndex, generation: int) -> None:
        self._policies = policies
        self._by_head = by_head
        self._generation = generation
        self.epoch: int | None = None
        self.evaluator: PolicyEvaluator | None = None
        #: BatchDecisionEngine, or a CompiledPolicyEngine when the
        #: owning EpochalPolicyEngine compiles its snapshots.
        self.engine: object | None = None

    @property
    def generation(self) -> int:
        return self._generation

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

    def close(self) -> None:
        """Reclamation hook: drop the per-epoch decision cache."""
        if self.evaluator is not None:
            self.evaluator.invalidate_cache()

    def __repr__(self) -> str:
        return (f"<PolicySnapshot gen={self._generation} "
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
        self._generation = Generation()
        for policy in policies:
            self.add(policy)

    @property
    def generation(self) -> int:
        return self._generation.value

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
            self._generation.bump()
        return policy

    def remove(self, policy: Policy) -> None:
        with self._lock:
            if policy not in self._policies:
                raise ConfigurationError(
                    f"{policy!r} not in policy base")
            head = _head_of(policy)
            action_map = dict(self._by_head[policy.action])
            action_map[head] = tuple(
                p for p in action_map.get(head, ()) if p is not policy)
            by_head = dict(self._by_head)
            by_head[policy.action] = action_map
            self._policies = tuple(
                p for p in self._policies if p is not policy)
            self._by_head = by_head
            self._generation.bump()

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
                                  self._generation.value)


class EpochalPolicyEngine:
    """Lock-free authorization: reads pin an epoch, writes advance it.

    Implements the gateway engine contract (``decide_batch``); each
    published snapshot carries its own :class:`PolicyEvaluator` and
    :class:`BatchDecisionEngine` so worker threads never contend on
    writer state, and the per-epoch decision cache is dropped when the
    epoch is reclaimed.
    """

    def __init__(self, policies: Iterable[Policy] = (),
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None,
                 epochs: EpochManager | None = None,
                 compile_policies: bool = False) -> None:
        self.base = SnapshotPolicyBase(policies)
        self.resolution = resolution
        self.default = default
        self.audit = audit
        self.epochs = epochs if epochs is not None else EpochManager()
        self.compile_policies = compile_policies
        self._publish()

    def _publish(self) -> PolicySnapshot:
        snapshot = self.base.freeze()
        if self.compile_policies:
            # The snapshot is immutable, so the compiled table stays
            # fresh for the epoch's whole lifetime; publication *is*
            # the recompilation hook.
            from repro.compile.engine import CompiledPolicyEngine

            snapshot.engine = CompiledPolicyEngine(
                base=snapshot, resolution=self.resolution,
                default=self.default, audit=self.audit)
        else:
            snapshot.evaluator = PolicyEvaluator(
                snapshot, resolution=self.resolution,
                default=self.default, audit=self.audit)
            snapshot.engine = BatchDecisionEngine(snapshot.evaluator)
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
        with self.epochs.reading() as snapshot:
            if snapshot.evaluator is not None:
                return snapshot.evaluator.decide(subject, action, path,
                                                 payload)
            return snapshot.engine.decide(subject, action, path,
                                          payload)

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        with self.epochs.reading() as snapshot:
            return snapshot.engine.decide_batch(requests)

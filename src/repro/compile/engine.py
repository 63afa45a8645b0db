"""``CompiledPolicyEngine``: the interpreter's O(1) drop-in.

Wraps a mutable :class:`~repro.core.policy.PolicyBase` (or any
duck-typed stand-in such as a
:class:`~repro.snap.policy.PolicySnapshot`) and serves decisions from a
:class:`~repro.compile.table.CompiledPolicy` artifact.  Freshness rides
on the generation stamps from :mod:`repro.perf.cache`: every decision
path calls :meth:`ensure_fresh`, which compares the artifact's
``source_generation`` against the base's current counter and recompiles
on drift; when the base exposes ``add_invalidation_hook`` the engine
additionally drops the artifact eagerly on mutation, so a stale table
is never consulted even by code reading ``current()`` directly.

The engine duck-types the surfaces its neighbours expect:

* the gateway contract (:mod:`repro.gateway.core`) — ``decide_batch``;
* the serial evaluator surface — ``decide``/``check``, with identical
  audit records (one per decision, in request order);
* the ``PolicyBase`` evaluation surface — ``candidates``/
  ``applicable``/``generation``/iteration — delegated to the wrapped
  base, so the engine can stand wherever a policy base is expected
  (e.g. handed to a :class:`~repro.core.evaluator.PolicyEvaluator` as
  an oracle in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.audit import AuditLog
from repro.core.evaluator import (
    ConflictResolution,
    Decision,
    DefaultDecision,
)
from repro.core.objects import ResourcePath
from repro.core.policy import Action, Policy, PolicyBase
from repro.core.subjects import Subject

from repro.compile.table import CompiledPolicy, compile_policy_base


@dataclass
class EngineStats:
    """Recompilation bookkeeping for benchmarks and tests."""

    compilations: int = 0
    decisions: int = 0


class CompiledPolicyEngine:
    """Authorization from a compiled decision table, recompiled on drift."""

    def __init__(self, policies: Iterable[Policy] = (),
                 resolution: ConflictResolution =
                 ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None,
                 probes: Sequence[Subject] | None = None,
                 base: object = None) -> None:
        self.base = base if base is not None else PolicyBase(policies)
        self.resolution = resolution
        self.default = default
        self.audit = audit
        self.probes = probes
        self.stats = EngineStats()
        self._artifact: CompiledPolicy | None = None
        hook = getattr(self.base, "add_invalidation_hook", None)
        if hook is not None:
            hook(self._drop_artifact)
        self.ensure_fresh()

    def _drop_artifact(self) -> None:
        self._artifact = None

    def ensure_fresh(self) -> CompiledPolicy:
        """The compiled artifact for the base's *current* generation."""
        artifact = self._artifact
        if artifact is None or artifact.is_stale(self.base.generation):
            artifact = compile_policy_base(
                self.base, resolution=self.resolution,
                default=self.default, probes=self.probes)
            self._artifact = artifact
            self.stats.compilations += 1
        return artifact

    def current(self) -> CompiledPolicy:
        """Public accessor for the fresh artifact (digest, stats)."""
        return self.ensure_fresh()

    # -- writer side ----------------------------------------------------

    def add_policy(self, policy: Policy) -> Policy:
        return self.base.add(policy)

    def remove_policy(self, policy: Policy) -> None:
        self.base.remove(policy)

    # -- reader side ----------------------------------------------------

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision:
        table = self.ensure_fresh()
        decision = table.decide(subject, action, path, payload)
        self.stats.decisions += 1
        self._record(subject, action, path, decision)
        return decision

    def check(self, subject: Subject, action: Action,
              path: ResourcePath | str, payload: object = None) -> bool:
        return self.decide(subject, action, path, payload).granted

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """Gateway-contract batch: decisions and audit in input order."""
        table = self.ensure_fresh()
        decisions: list[Decision] = []
        for request in requests:
            subject, action, path = request[0], request[1], request[2]
            payload = request[3] if len(request) > 3 else None
            decision = table.decide(  # lint: allow=LINT-BATCHLOOP
                subject, action, path, payload)
            decisions.append(decision)
            self._record(subject, action, path, decision)
        self.stats.decisions += len(decisions)
        return decisions

    def _record(self, subject: Subject, action: Action,
                path: ResourcePath | str, decision: Decision) -> None:
        if self.audit is not None:
            self.audit.record(
                subject=subject.identity.name, action=action.value,
                resource=str(ResourcePath(path)),
                granted=decision.granted, detail=decision.reason)

    # -- PolicyBase evaluation surface (delegated) ----------------------

    @property
    def generation(self) -> int:
        return self.base.generation

    def __len__(self) -> int:
        return len(self.base)

    def __iter__(self) -> Iterator[Policy]:
        return iter(self.base)

    def candidates(self, action: Action,
                   path: ResourcePath | str) -> list[Policy]:
        return self.base.candidates(action, path)

    def applicable(self, subject: Subject, action: Action,
                   path: ResourcePath | str,
                   payload: object = None) -> list[Policy]:
        return self.base.applicable(subject, action, path, payload)

"""Policy evaluation with pluggable conflict resolution.

Section 3.2 asks "How can we solve semantic inconsistencies for the
policies?" — the classical answer is an explicit conflict-resolution
strategy plus a default decision for requests no policy covers.  The
evaluator supports the strategies found in the access control literature
the paper builds on:

* DENY_OVERRIDES — any applicable DENY wins (the safe default);
* GRANT_OVERRIDES — any applicable GRANT wins;
* MOST_SPECIFIC — the policy whose resource pattern is most specific wins,
  ties resolved by DENY_OVERRIDES;
* PRIORITY — highest ``Policy.priority`` wins, ties by DENY_OVERRIDES.

and two defaults for uncovered requests: CLOSED (deny, conventional DBMS)
and OPEN (grant, public web content).

:class:`Authorizer` names the one authorization contract.
:class:`PolicyEvaluator` is its interpreter — cache-free, the oracle;
the per-shard compiled tables published by
:class:`~repro.gateway.engine.EpochalShardRouter` are its fast path,
and the two are checked against each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.core.audit import AuditLog
from repro.core.errors import AccessDenied
from repro.core.objects import ResourcePath
from repro.core.policy import Action, Policy, PolicyBase, Sign
from repro.core.subjects import Subject


class ConflictResolution(enum.Enum):
    DENY_OVERRIDES = "deny_overrides"
    GRANT_OVERRIDES = "grant_overrides"
    MOST_SPECIFIC = "most_specific"
    PRIORITY = "priority"


class DefaultDecision(enum.Enum):
    CLOSED = "closed"  # no applicable policy -> deny
    OPEN = "open"      # no applicable policy -> grant


@dataclass(frozen=True)
class Decision:
    """The outcome of evaluating one request.

    ``granted`` is the verdict; ``determining`` is the policy that decided
    it (None when the default decision applied); ``applicable`` is every
    policy that matched, for explanation and audit.
    """

    granted: bool
    determining: Policy | None
    applicable: tuple[Policy, ...]
    reason: str

    def __bool__(self) -> bool:
        return self.granted


class Authorizer(Protocol):
    """The authorization contract, with exactly two implementations.

    * :class:`PolicyEvaluator` — the cache-free interpreter: every
      request re-derives its applicable policies from the base.  It is
      the oracle every other answer is checked against.
    * :class:`~repro.gateway.engine.EpochalShardRouter` — the fast
      path: every publication carries one compiled decision table per
      shard, and the gateway decides a shard group through
      ``engine(shard).decide_batch``.

    ``decide_batch(requests)`` equals ``[decide(*r) for r in requests]``
    — decisions and audit rows, in input order.  A request is a
    ``(subject, action, path)`` triple, optionally with a payload.
    """

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision: ...

    def decide_batch(self, requests: Sequence[tuple]
                     ) -> list[Decision]: ...


def audit_decision(audit: AuditLog, subject: Subject, action: Action,
                   path: ResourcePath | str, decision: Decision) -> None:
    """Append one decision to *audit* — the row both implementations
    write, so their audit trails compare byte for byte."""
    audit.record(subject=subject.identity.name, action=action.value,
                 resource=str(ResourcePath(path)),
                 granted=decision.granted, detail=decision.reason)


class PolicyEvaluator:
    """Evaluates requests against a :class:`PolicyBase` — the interpreter.

    Nothing is memoised: every :meth:`decide` asks the base for its
    applicable policies and resolves them, so its cost is the cost of
    evaluation (experiments E1 and A3 count the candidates each decision
    examines) and its answer is the oracle for the compiled path.

    Parameters
    ----------
    policy_base:
        The policies to enforce.
    resolution:
        Conflict-resolution strategy for requests matched by both GRANT
        and DENY policies.
    default:
        Verdict when no policy applies at all.
    audit:
        Optional audit log; every decision is recorded when provided.
    """

    def __init__(self, policy_base: PolicyBase,
                 resolution: ConflictResolution = ConflictResolution.DENY_OVERRIDES,
                 default: DefaultDecision = DefaultDecision.CLOSED,
                 audit: AuditLog | None = None) -> None:
        self.policy_base = policy_base
        self.resolution = resolution
        self.default = default
        self.audit = audit

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision:
        """Evaluate a request and return the full decision object."""
        path = ResourcePath(path)
        decision = self.resolve(self.policy_base.applicable(
            subject, action, path, payload))
        if self.audit is not None:
            audit_decision(self.audit, subject, action, path, decision)
        return decision

    def decide_batch(self, requests: Sequence[tuple]) -> list[Decision]:
        """The serial loop: same decisions, audit rows in input order."""
        return [self.decide(*request) for request in requests]

    def check(self, subject: Subject, action: Action,
              path: ResourcePath | str, payload: object = None) -> bool:
        """Boolean convenience wrapper around :meth:`decide`."""
        return self.decide(subject, action, path, payload).granted

    def enforce(self, subject: Subject, action: Action,
                path: ResourcePath | str, payload: object = None) -> Decision:
        """Like :meth:`decide` but raises :class:`AccessDenied` on deny."""
        decision = self.decide(subject, action, path, payload)
        if not decision.granted:
            raise AccessDenied(subject.identity.name, action.value,
                               str(ResourcePath(path)),
                               reason=decision.reason)
        return decision

    # -- conflict resolution -------------------------------------------

    def resolve(self, applicable: list[Policy]) -> Decision:
        """Turn the applicable-policy set into a :class:`Decision`.

        Public so that the compiled table (:mod:`repro.compile.table`)
        fills its cells with this exact conflict-resolution logic — the
        two implementations of :class:`Authorizer` agree because they
        resolve identically.
        """
        if not applicable:
            granted = self.default is DefaultDecision.OPEN
            return Decision(granted, None, (),
                            f"default {self.default.value} world")
        grants = [p for p in applicable if p.sign is Sign.GRANT]
        denies = [p for p in applicable if p.sign is Sign.DENY]
        strategy = self.resolution
        if strategy is ConflictResolution.DENY_OVERRIDES:
            return self._deny_overrides(grants, denies, applicable)
        if strategy is ConflictResolution.GRANT_OVERRIDES:
            if grants:
                return Decision(True, grants[0], tuple(applicable),
                                f"grant-overrides by {grants[0]!r}")
            return Decision(False, denies[0], tuple(applicable),
                            f"denied by {denies[0]!r}")
        if strategy is ConflictResolution.MOST_SPECIFIC:
            best = max(p.resource.specificity for p in applicable)
            top = [p for p in applicable if p.resource.specificity == best]
            return self._deny_overrides(
                [p for p in top if p.sign is Sign.GRANT],
                [p for p in top if p.sign is Sign.DENY],
                applicable, note="most-specific tier")
        # PRIORITY
        best = max(p.priority for p in applicable)
        top = [p for p in applicable if p.priority == best]
        return self._deny_overrides(
            [p for p in top if p.sign is Sign.GRANT],
            [p for p in top if p.sign is Sign.DENY],
            applicable, note=f"priority={best} tier")

    @staticmethod
    def _deny_overrides(grants: list[Policy], denies: list[Policy],
                        applicable: list[Policy],
                        note: str = "") -> Decision:
        prefix = f"{note}: " if note else ""
        if denies:
            return Decision(False, denies[0], tuple(applicable),
                            f"{prefix}deny-overrides by {denies[0]!r}")
        if grants:
            return Decision(True, grants[0], tuple(applicable),
                            f"{prefix}granted by {grants[0]!r}")
        return Decision(False, None, tuple(applicable),
                        f"{prefix}no grant among applicable policies")

"""Access control policies.

A policy says: subjects matching a *credential expression* may (or may not)
perform an *action* on objects matching a *resource pattern*, optionally
only when a *condition* over the object's content holds (content-dependent
policies, §3.2).  Policies carry a *sign*:

* ``Sign.GRANT`` — positive authorization;
* ``Sign.DENY``  — negative authorization (prohibitions), needed on the web
  where open subject populations make "everyone except X" common.

and a *propagation* mode describing whether the policy covers just the
matched object or its whole subtree (Author-X's cascading option).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.credentials import CredentialExpression, anyone
from repro.core.errors import ConfigurationError
from repro.core.objects import ResourcePath, ResourcePattern, is_glob
from repro.core.subjects import Subject


class Sign(enum.Enum):
    """Polarity of an authorization."""

    GRANT = "grant"
    DENY = "deny"


class Propagation(enum.Enum):
    """How far below the matched object a policy reaches."""

    LOCAL = "local"       # the matched object only
    CASCADE = "cascade"   # the matched object and all its descendants
    ONE_LEVEL = "one_level"  # the matched object and its direct children


class Action(enum.Enum):
    """The verbs the paper's scenarios need.

    ``READ`` covers querying and browsing; ``WRITE`` covers updates;
    ``NAVIGATE`` is Author-X's browsing-only privilege (see the element
    without its content); ``ADMIN`` covers policy administration.
    """

    READ = "read"
    WRITE = "write"
    NAVIGATE = "navigate"
    ADMIN = "admin"


#: Condition over the protected object's payload; None payload -> False
#: unless the condition tolerates it.
ContentCondition = Callable[[object], bool]

_policy_counter = itertools.count(1)


@dataclass(frozen=True)
class Policy:
    """One access control policy.

    Attributes
    ----------
    subject_expression:
        Which subjects the policy applies to.
    action:
        The verb being authorized or denied.
    resource:
        Pattern selecting the protected objects.
    sign:
        GRANT or DENY.
    propagation:
        Reach below the matched object.
    condition:
        Optional content predicate evaluated against the object payload —
        this is what makes a policy *content-dependent*.
    priority:
        Larger wins in PRIORITY conflict resolution; defaults to 0.
    policy_id:
        Unique, auto-assigned; stable ordering for deterministic output.
    """

    subject_expression: CredentialExpression
    action: Action
    resource: ResourcePattern
    sign: Sign = Sign.GRANT
    propagation: Propagation = Propagation.CASCADE
    condition: ContentCondition | None = None
    priority: int = 0
    policy_id: int = field(default_factory=lambda: next(_policy_counter))

    def __repr__(self) -> str:
        cond = " if <condition>" if self.condition else ""
        return (f"Policy#{self.policy_id}({self.sign.value} "
                f"{self.action.value} on {self.resource} to "
                f"{self.subject_expression.description}"
                f" [{self.propagation.value}]{cond})")

    def applies_to_subject(self, subject: Subject) -> bool:
        return self.subject_expression.evaluate(subject)

    def applies_to_resource(self, path: ResourcePath | str) -> bool:
        """Pattern match including propagation through ancestors."""
        path = ResourcePath(path)
        if self.resource.matches(path):
            return True
        if self.propagation is Propagation.LOCAL:
            return False
        if self.propagation is Propagation.ONE_LEVEL:
            return len(path) > 0 and self.resource.matches(path.parent)
        # CASCADE: the policy applies if it matches any ancestor.
        return any(self.resource.matches(ancestor)
                   for ancestor in path.ancestors(include_self=False))

    def applies_to_content(self, payload: object) -> bool:
        if self.condition is None:
            return True
        try:
            return bool(self.condition(payload))
        except Exception as _exc:  # noqa: deliberate broad swallow
            # A content condition that cannot evaluate its payload is
            # conservatively treated as not matching.
            return False

    def applies(self, subject: Subject, action: Action,
                path: ResourcePath | str, payload: object = None) -> bool:
        return (self.action is action
                and self.applies_to_subject(subject)
                and self.applies_to_resource(path)
                and self.applies_to_content(payload))


def grant(subject_expression: CredentialExpression | None = None,
          action: Action = Action.READ,
          resource: ResourcePattern | str = "**",
          propagation: Propagation = Propagation.CASCADE,
          condition: ContentCondition | None = None,
          priority: int = 0) -> Policy:
    """Convenience constructor for a positive policy."""
    return Policy(subject_expression or anyone(), action,
                  ResourcePattern(resource), Sign.GRANT, propagation,
                  condition, priority)


def deny(subject_expression: CredentialExpression | None = None,
         action: Action = Action.READ,
         resource: ResourcePattern | str = "**",
         propagation: Propagation = Propagation.CASCADE,
         condition: ContentCondition | None = None,
         priority: int = 0) -> Policy:
    """Convenience constructor for a negative policy."""
    return Policy(subject_expression or anyone(), action,
                  ResourcePattern(resource), Sign.DENY, propagation,
                  condition, priority)


#: The index head of every policy whose pattern can match under any
#: first path segment.
GLOB_HEAD = "*"


def index_head(policy: Policy) -> str:
    """The first-segment key a policy is indexed (and placed) under.

    A literal first segment is its own key; a glob one — and the empty
    pattern, which matches only the root — is :data:`GLOB_HEAD`, since
    such a policy can apply to a path under any head.
    """
    segments = policy.resource.segments
    if segments and not is_glob(segments[0]):
        return segments[0]
    return GLOB_HEAD


class PolicyBase:
    """An ordered collection of policies with simple indexing.

    Policies are indexed by action and by the first literal segment of their
    resource pattern, which prunes most of the base on lookup — this is the
    "query processing algorithms may need to take into consideration the
    access control policies" hook of §3.1, and what benchmark E1 measures.
    """

    def __init__(self, policies: Iterable[Policy] = ()) -> None:
        self._policies: list[Policy] = []
        # first-segment index: index_head(policy) -> policies.
        self._by_head: dict[Action, dict[str, list[Policy]]] = {
            a: {} for a in Action}
        # Bumped on every add/remove; a compiled table records the value
        # it was built from, so verifying it against a drifted base
        # shows the drift.
        self.generation = 0
        for policy in policies:
            self.add(policy)

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self) -> Iterator[Policy]:
        return iter(self._policies)

    def add(self, policy: Policy) -> Policy:
        self._policies.append(policy)
        self._by_head[policy.action].setdefault(
            index_head(policy), []).append(policy)
        self.generation += 1
        return policy

    def remove(self, policy: Policy) -> None:
        try:
            self._policies.remove(policy)
        except ValueError:
            raise ConfigurationError(f"{policy!r} not in policy base") from None
        self._by_head[policy.action][index_head(policy)].remove(policy)
        self.generation += 1

    def candidates(self, action: Action,
                   path: ResourcePath | str) -> list[Policy]:
        """Policies that could apply to (action, path), via the head index."""
        path = ResourcePath(path)
        index = self._by_head[action]
        result: list[Policy] = list(index.get(GLOB_HEAD, ()))
        if path.segments:
            result.extend(index.get(path.segments[0], ()))
        # Deterministic order regardless of index iteration.
        result.sort(key=lambda p: p.policy_id)
        return result

    def applicable(self, subject: Subject, action: Action,
                   path: ResourcePath | str,
                   payload: object = None) -> list[Policy]:
        """All policies applying to the full request, in id order."""
        return [p for p in self.candidates(action, path)
                if p.applies(subject, action, path, payload)]

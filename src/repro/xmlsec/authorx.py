"""Author-X style access control policies for XML documents [5].

A policy in this model names:

* a *subject specification*: a credential expression
  (:mod:`repro.core.credentials`);
* an *object specification*: a document selector (document id or '*') plus
  an XPath-lite expression addressing portions within the document —
  giving the §3.2 granularity ladder: collection ('*' + '/'), document
  (id + '/'), element (id + path), and *content-dependent* selection
  (path with predicates such as ``//record[diagnosis='flu']``);
* a *privilege*: READ (see the whole subtree) or NAVIGATE (see the
  element and its structure but no text/attribute content);
* a *sign*: GRANT or DENY, with DENY overriding at equal depth;
* a *propagation* depth: LOCAL (the selected elements only), ONE_LEVEL,
  or CASCADE (whole subtrees).

The resolution rule is the one Author-X uses: the *most specific* policy
along the element's ancestor chain wins — a policy attached to a deeper
node overrides policies inherited from above; among policies attached at
the same depth, DENY overrides GRANT.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from typing import Sequence

from repro.core.cache import MISS, LRUCache
from repro.core.credentials import CredentialExpression
from repro.core.errors import ConfigurationError, ParseError, QueryError
from repro.core.subjects import Subject
from repro.xmldb.model import Document, Element
from repro.xmldb.xpath import XPath, compile_xpath, select_elements
from repro.xmlsec.multipath import simultaneous_select, supports_path


class Privilege(enum.Enum):
    READ = "read"
    NAVIGATE = "navigate"


class XmlSign(enum.Enum):
    GRANT = "+"
    DENY = "-"


class XmlPropagation(enum.Enum):
    LOCAL = "local"
    ONE_LEVEL = "one_level"
    CASCADE = "cascade"


_xml_policy_ids = itertools.count(1)


@dataclass(frozen=True)
class XmlPolicy:
    """One Author-X policy."""

    subject_spec: CredentialExpression
    document_selector: str           # document id or '*'
    target: XPath
    privilege: Privilege = Privilege.READ
    sign: XmlSign = XmlSign.GRANT
    propagation: XmlPropagation = XmlPropagation.CASCADE
    policy_id: int = field(default_factory=lambda: next(_xml_policy_ids))

    def applies_to_document(self, doc_id: str) -> bool:
        return self.document_selector in ("*", doc_id)

    def applies_to_subject(self, subject: Subject) -> bool:
        return self.subject_spec.evaluate(subject)

    def __repr__(self) -> str:
        return (f"XmlPolicy#{self.policy_id}({self.sign.value}"
                f"{self.privilege.value} {self.document_selector}:"
                f"{self.target} to {self.subject_spec.description} "
                f"[{self.propagation.value}])")


def xml_grant(subject_spec: CredentialExpression, target: str,
              document: str = "*",
              privilege: Privilege = Privilege.READ,
              propagation: XmlPropagation = XmlPropagation.CASCADE
              ) -> XmlPolicy:
    return XmlPolicy(subject_spec, document, compile_xpath(target),
                     privilege, XmlSign.GRANT, propagation)


def xml_deny(subject_spec: CredentialExpression, target: str,
             document: str = "*",
             privilege: Privilege = Privilege.READ,
             propagation: XmlPropagation = XmlPropagation.CASCADE
             ) -> XmlPolicy:
    return XmlPolicy(subject_spec, document, compile_xpath(target),
                     privilege, XmlSign.DENY, propagation)


@dataclass(frozen=True)
class NodeLabel:
    """Resolved authorization state for one element.

    ``access`` is the winning privilege level: 'read' (full), 'navigate'
    (structure only) or 'none'.  ``deciding_policy`` explains the verdict.
    """

    access: str
    deciding_policy: XmlPolicy | None


class XmlPolicyBase:
    """The set of XML policies protecting a database.

    Labellings are memoized under the key ``(subject, document id,
    document object, policy generation, document version)``, so both a
    policy add/remove and an in-place document edit make the next
    lookup miss; superseded entries age out of the bounded cache.
    Cached label maps are shared — treat them as read-only.
    """

    def __init__(self, policies: "list[XmlPolicy] | None" = None) -> None:
        self._policies: list[XmlPolicy] = list(policies or [])
        #: Mutation counter; changes on every policy add/remove.
        self.generation = 0
        self._label_cache = LRUCache(maxsize=256)

    def add(self, policy: XmlPolicy) -> XmlPolicy:
        self._policies.append(policy)
        self.generation += 1
        return policy

    def remove(self, policy: XmlPolicy) -> None:
        """Revoke a policy; cached labellings stop matching at once."""
        try:
            self._policies.remove(policy)
        except ValueError:
            raise ConfigurationError(
                f"{policy!r} not in XML policy base") from None
        self.generation += 1

    def __len__(self) -> int:
        return len(self._policies)

    def __iter__(self):
        return iter(self._policies)

    def policies(self) -> "list[XmlPolicy]":
        """A snapshot of the base, for static analysis."""
        return list(self._policies)

    def policies_for(self, subject: Subject, doc_id: str) -> list[XmlPolicy]:
        return [p for p in self._policies
                if p.applies_to_document(doc_id)
                and p.applies_to_subject(subject)]

    @staticmethod
    def select_policy_targets(policies: Sequence[XmlPolicy],
                              document: Document) -> list[list[Element]]:
        """The target element set of every policy, one list per policy.

        Distinct target paths are evaluated once and the element list
        shared among every policy using them — policy bases protect the
        same DTD elements for many subject groups, so duplicates are the
        common case.  Paths the simultaneous matcher supports (the vast
        majority: everything without positional predicates) are then all
        evaluated in a single DOM traversal; the rest fall back to the
        classic engine one by one.  A target whose evaluation fails
        selects nothing — the same forgiving behaviour the per-policy
        labeller always had.  Returned lists are shared: treat them as
        read-only.
        """
        results: list[list[Element]] = [[] for _ in policies]
        groups: dict[str, list[int]] = {}
        for index, policy in enumerate(policies):
            groups.setdefault(str(policy.target), []).append(index)
        fast = [indices for indices in groups.values()
                if supports_path(policies[indices[0]].target)]
        if fast:
            for indices, selected in zip(
                    fast,
                    simultaneous_select(
                        [policies[indices[0]].target for indices in fast],
                        document)):
                for index in indices:
                    results[index] = selected
        fast_heads = {indices[0] for indices in fast}
        for text, indices in groups.items():
            if indices[0] in fast_heads:
                continue
            try:
                selected = select_elements(policies[indices[0]].target,
                                           document)
            except (ParseError, QueryError):
                # A malformed target selects nothing (closed world);
                # anything else propagates instead of failing open.
                selected = []
            for index in indices:
                results[index] = selected
        return results

    def label_document(self, subject: Subject, doc_id: str,
                       document: Document,
                       use_cache: bool = True) -> dict[int, NodeLabel]:
        """Resolve per-element authorization for the whole document.

        Returns a map from ``id(element)`` to :class:`NodeLabel`.  The
        algorithm follows Author-X:

        1. Evaluate each applicable policy's XPath target, marking the
           selected elements (and, per propagation, their subtrees) with
           (depth-of-attachment, sign, privilege).
        2. For each element, the mark attached at the greatest depth wins;
           ties resolve DENY over GRANT, and NAVIGATE is dominated by READ
           within the same sign/depth tier.
        3. Unmarked elements default to no access (closed world).

        All policy targets are evaluated in one DOM traversal (see
        :meth:`select_policy_targets`); the per-policy-traversal variant
        survives as :meth:`label_document_per_policy`, the oracle the
        equivalence tests and benchmarks compare against.
        """
        key = (subject, doc_id, document, self.generation, document.version)
        if use_cache:
            cached = self._label_cache.get(key)
            if cached is not MISS:
                return cached
        policies = self.policies_for(subject, doc_id)
        targets = self.select_policy_targets(policies, document)
        labels = self._resolve_labels(policies, targets, document)
        if use_cache:
            self._label_cache.put(key, labels)
        return labels

    def label_document_per_policy(self, subject: Subject, doc_id: str,
                                  document: Document) -> dict[int, NodeLabel]:
        """Legacy labeller: one DOM traversal *per policy*.

        Kept as the correctness oracle for the single-pass path — the
        equivalence suite asserts both produce identical label maps.
        """
        policies = self.policies_for(subject, doc_id)
        targets: list[list[Element]] = []
        for policy in policies:
            try:
                targets.append(select_elements(policy.target, document))
            except (ParseError, QueryError):
                targets.append([])
        return self._resolve_labels(policies, targets, document)

    @staticmethod
    def _resolve_labels(policies: Sequence[XmlPolicy],
                        targets: Sequence[list[Element]],
                        document: Document) -> dict[int, NodeLabel]:
        # Attachment points only; propagation happens *during* the one
        # downward sweep below (a CASCADE mark rides along the
        # traversal) instead of eagerly expanding each mark over its
        # subtree, which would cost O(marks × subtree) again.
        attach: dict[int, list[XmlPolicy]] = {}
        for policy, selected in zip(policies, targets):
            for target_root in selected:
                attach.setdefault(id(target_root), []).append(policy)

        labels: dict[int, NodeLabel] = {}
        unmarked = NodeLabel("none", None)
        # Many nodes share the same mark *context* — the ancestors' mark
        # list object plus the same locally attached (depth, policy)
        # extras (think of the 200 <name> elements under identically
        # protected records).  Memoizing resolution on that context runs
        # the tier logic once per distinct context, not once per node.
        context_label: dict[object, NodeLabel] = {}
        # Extended inherited-mark lists interned by content: sibling
        # subtrees attaching the same cascades share one list object, so
        # their descendants' contexts compare equal by ``id``.  The
        # intern table also keeps every list alive, keeping ids unique.
        interned: dict[tuple, list] = {}
        resolve = XmlPolicyBase._label_from_marks

        def walk(node: Element, depth: int,
                 inherited: list[tuple[int, XmlPolicy]],
                 parent_one_level: list[tuple[int, XmlPolicy]] | None
                 ) -> None:
            own = attach.get(id(node))
            child_inherited = inherited
            one_level: list[tuple[int, XmlPolicy]] | None = None
            key: object
            if own is None and parent_one_level is None:
                extra = None
                key = id(inherited)
            else:
                extra = list(parent_one_level or ())
                cascades: list[tuple[int, XmlPolicy]] | None = None
                for policy in own or ():
                    mark = (depth, policy)
                    extra.append(mark)
                    propagation = policy.propagation
                    if propagation is XmlPropagation.CASCADE:
                        if cascades is None:
                            cascades = [mark]
                        else:
                            cascades.append(mark)
                    elif propagation is XmlPropagation.ONE_LEVEL:
                        if one_level is None:
                            one_level = [mark]
                        else:
                            one_level.append(mark)
                if cascades is not None:
                    intern_key = (id(inherited),
                                  tuple((d, p.policy_id)
                                        for d, p in cascades))
                    child_inherited = interned.get(intern_key)
                    if child_inherited is None:
                        child_inherited = inherited + cascades
                        interned[intern_key] = child_inherited
                key = (id(inherited),
                       tuple((d, p.policy_id) for d, p in extra))
            label = context_label.get(key)
            if label is None:
                node_marks = (inherited if extra is None
                              else inherited + extra)
                label = resolve(node_marks) if node_marks else unmarked
                context_label[key] = label
            labels[id(node)] = label
            for child in node.element_children:
                walk(child, depth + 1, child_inherited, one_level)

        root_marks: list[tuple[int, XmlPolicy]] = []
        walk(document.root, 0, root_marks, None)
        return labels

    @staticmethod
    def _label_from_marks(node_marks: "list[tuple[int, XmlPolicy]]"
                          ) -> NodeLabel:
        """Author-X tier resolution for one element's active marks."""
        best_depth = max(depth for depth, _ in node_marks)
        tier = [p for depth, p in node_marks if depth == best_depth]
        # Tie-break deterministically by policy id so the deciding
        # policy does not depend on insertion order of the base.
        tier.sort(key=lambda p: p.policy_id)
        denies = [p for p in tier if p.sign is XmlSign.DENY]
        if denies:
            # The strongest denial wins: denying READ still may leave
            # NAVIGATE if a grant for NAVIGATE exists and no NAVIGATE
            # deny does.
            denied_privs = {p.privilege for p in denies}
            grants = [p for p in tier if p.sign is XmlSign.GRANT]
            if (Privilege.READ not in denied_privs
                    and any(p.privilege is Privilege.READ
                            for p in grants)):
                return NodeLabel(
                    "read",
                    next(p for p in grants
                         if p.privilege is Privilege.READ))
            # Navigate survives only via an explicit NAVIGATE grant:
            # denying READ also kills the navigation READ implies.
            navigate_ok = (
                Privilege.NAVIGATE not in denied_privs
                and any(p.privilege is Privilege.NAVIGATE
                        for p in grants))
            if navigate_ok:
                return NodeLabel("navigate", denies[0])
            return NodeLabel("none", denies[0])
        grants = tier
        if any(p.privilege is Privilege.READ for p in grants):
            policy = next(p for p in grants
                          if p.privilege is Privilege.READ)
            return NodeLabel("read", policy)
        return NodeLabel("navigate", grants[0])

"""Whole-policy-base static analysis for Author-X XML policies.

The enforcement path (:meth:`repro.xmlsec.authorx.XmlPolicyBase.
label_document`) resolves ⊕/⊖ conflicts per request, per materialized
document.  This module answers the same questions *before any document
exists* by evaluating policy targets against the DTD element graph
(:class:`repro.xmldb.dtd.Schema`) instead of instance trees:

* ``XML-DEAD`` — the target selects no element type derivable from the
  DTD: the policy can never fire;
* ``XML-CONFLICT`` — a GRANT and a DENY with overlapping subject
  specifications attach to the same DTD node at the same privilege, so
  every document instantiating that node resolves a conflict at runtime;
* ``XML-SHADOWED`` — a GRANT whose whole propagation region is covered,
  at equal-or-greater attachment depth and for every subject it
  qualifies, by DENY policies: most-specific-wins plus deny-over-grant
  means the grant can never decide any node.

⊕/⊖ propagation reachability is computed on the DTD graph: a policy
attached to element type *t* with CASCADE affects every type reachable
from *t* through content-model edges, ONE_LEVEL affects *t* and its
declared children, LOCAL affects *t* alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.findings import Finding, Report, Severity, REGISTRY
from repro.analysis.probes import (
    as_probe_list,
    describe_overlap,
    mask_covers,
    masks_overlap,
    probe_mask,
)
from repro.core.subjects import Subject
from repro.xmldb.dtd import Schema
from repro.xmldb.xpath import XPath
from repro.xmlsec.authorx import XmlPolicy, XmlPolicyBase, XmlSign

REGISTRY.register(
    "XML-DEAD", Severity.ERROR, "xml",
    "policy target unsatisfiable on the DTD",
    "§3.2 access control must be definable at DTD level, not only on "
    "materialized documents")
REGISTRY.register(
    "XML-CONFLICT", Severity.WARNING, "xml",
    "grant/deny conflict on the same DTD node",
    "§3.2 conflict resolution (deny-takes-precedence) should be a "
    "design-time decision, not a runtime surprise")
REGISTRY.register(
    "XML-SHADOWED", Severity.WARNING, "xml",
    "grant shadowed everywhere by denials",
    "§3.2 most-specific-wins resolution can silently void a policy; "
    "dead policies hide intent drift")


class DtdGraph:
    """The element graph of a schema: tags, edges, depths, closures."""

    def __init__(self, schema: Schema) -> None:
        self.root = schema.root_tag
        self.children: dict[str, frozenset[str]] = {
            decl.tag: frozenset(spec.tag for spec in decl.children)
            for decl in schema.declarations()}
        self.children.setdefault(self.root, frozenset())
        self._min_depth: dict[str, int] = {}
        frontier = [self.root]
        depth = 0
        while frontier:
            next_frontier: list[str] = []
            for tag in frontier:
                if tag in self._min_depth:
                    continue
                self._min_depth[tag] = depth
                next_frontier.extend(self.children.get(tag, ()))
            frontier = next_frontier
            depth += 1
        self._descendants: dict[str, frozenset[str]] = {}

    def declared(self, tag: str) -> bool:
        return tag in self._min_depth

    def min_depth(self, tag: str) -> int:
        return self._min_depth.get(tag, -1)

    def child_tags(self, tag: str) -> frozenset[str]:
        return self.children.get(tag, frozenset())

    def strict_descendants(self, tag: str) -> frozenset[str]:
        """Tags reachable from *tag* through one or more content edges."""
        cached = self._descendants.get(tag)
        if cached is not None:
            return cached
        reached: set[str] = set()
        frontier = list(self.child_tags(tag))
        while frontier:
            current = frontier.pop()
            if current in reached:
                continue
            reached.add(current)
            frontier.extend(self.child_tags(current))
        result = frozenset(reached)
        self._descendants[tag] = result
        return result

    def reachable_tags(self) -> frozenset[str]:
        return frozenset(self._min_depth)


def attachment_tags(target: XPath, graph: DtdGraph) -> frozenset[str]:
    """Element types the target can select on documents valid per DTD.

    Predicates are ignored (an over-approximation: a predicate can only
    shrink the selected set), and value-selecting targets (``@attr``,
    ``text()``) yield the empty set — ``select_elements`` rejects them at
    enforcement time, so such a policy is dead.
    """
    final = target.steps[-1]
    if final.test.startswith("@") or final.test == "text()":
        return frozenset()
    steps = list(target.steps)
    current: set[str]
    if target.absolute and steps[0].axis == "child":
        head = steps[0]
        current = ({graph.root} if head.test in (graph.root, "*")
                   else set())
        steps = steps[1:]
    else:
        current = {graph.root}
    for step in steps:
        next_tags: set[str] = set()
        for tag in current:
            if step.axis == "descendant":
                pool = graph.strict_descendants(tag)
            else:
                pool = graph.child_tags(tag)
            if step.test == "*":
                next_tags |= pool
            elif step.test in pool:
                next_tags.add(step.test)
        current = next_tags
        if not current:
            break
    return frozenset(current)


def propagation_region(policy: XmlPolicy, attachments: frozenset[str],
                       graph: DtdGraph) -> dict[str, int]:
    """Affected element types with their best attachment depth.

    Maps each tag the policy can label to the greatest ``min_depth`` of
    an attachment point affecting it — the quantity most-specific-wins
    resolution compares.
    """
    from repro.xmlsec.authorx import XmlPropagation

    region: dict[str, int] = {}
    for tag in attachments:
        depth = graph.min_depth(tag)
        if policy.propagation is XmlPropagation.LOCAL:
            targets: frozenset[str] = frozenset((tag,))
        elif policy.propagation is XmlPropagation.ONE_LEVEL:
            targets = graph.child_tags(tag) | {tag}
        else:
            targets = graph.strict_descendants(tag) | {tag}
        for affected in targets:
            if region.get(affected, -1) < depth:
                region[affected] = depth
    return region


@dataclass
class PolicySummary:
    """Everything the rules need about one policy, precomputed once."""

    policy: XmlPolicy
    attachments: frozenset[str]
    region: dict[str, int]
    subject_mask: int

    @property
    def dead(self) -> bool:
        return not self.attachments


@dataclass
class XmlPolicyAnalysis:
    """The analysis context handed to ``xml``-domain checkers."""

    base: XmlPolicyBase
    graph: DtdGraph
    probes: Sequence[Subject]
    summaries: list[PolicySummary] = field(default_factory=list)

    @classmethod
    def build(cls, base: XmlPolicyBase, schema: Schema,
              probes: Sequence[Subject] | None = None
              ) -> "XmlPolicyAnalysis":
        graph = DtdGraph(schema)
        probe_list = as_probe_list(probes)
        analysis = cls(base, graph, probe_list)
        for policy in base:
            attachments = attachment_tags(policy.target, graph)
            analysis.summaries.append(PolicySummary(
                policy, attachments,
                propagation_region(policy, attachments, graph),
                probe_mask(policy.subject_spec, probe_list)))
        return analysis

    def grants(self) -> list[PolicySummary]:
        return [s for s in self.summaries
                if s.policy.sign is XmlSign.GRANT]

    def denies(self) -> list[PolicySummary]:
        return [s for s in self.summaries
                if s.policy.sign is XmlSign.DENY]


def _location(policy: XmlPolicy) -> str:
    return f"policy#{policy.policy_id}"


@REGISTRY.checker("XML-DEAD")
def check_dead_policies(analysis: XmlPolicyAnalysis) -> list[Finding]:
    findings = []
    for summary in analysis.summaries:
        if summary.dead:
            findings.append(REGISTRY.make_finding(
                "XML-DEAD", _location(summary.policy),
                f"target {summary.policy.target} selects no element "
                f"type derivable from DTD root "
                f"<{analysis.graph.root}>",
                fix_hint="correct the XPath target or delete the policy"))
    return findings


@REGISTRY.checker("XML-CONFLICT")
def check_conflicts(analysis: XmlPolicyAnalysis) -> list[Finding]:
    """One finding per GRANT that collides with DENYs on a DTD node.

    Denies are indexed by (attachment tag, privilege) and, within that
    bucket, grouped by subject mask, so a grant makes one overlap test
    (a bitwise AND of probe masks) per distinct mask, not per deny.
    """
    by_tag: dict[tuple[str, object], dict[int, list[PolicySummary]]] = {}
    for deny in analysis.denies():
        if not deny.subject_mask:
            continue
        for tag in deny.attachments:
            (by_tag.setdefault((tag, deny.policy.privilege), {})
             .setdefault(deny.subject_mask, []).append(deny))
    findings = []
    for grant in analysis.grants():
        if not grant.subject_mask:
            continue
        conflicting: dict[int, tuple[str, int]] = {}
        for tag in grant.attachments:
            bucket = by_tag.get((tag, grant.policy.privilege), {})
            for mask, denies in bucket.items():
                if not masks_overlap(grant.subject_mask, mask):
                    continue
                for deny in denies:
                    conflicting.setdefault(
                        deny.policy.policy_id,
                        (tag, grant.subject_mask & mask))
        if not conflicting:
            continue
        sample_id = min(conflicting)
        tag, witness = conflicting[sample_id]
        witnesses = describe_overlap(witness, analysis.probes)
        others = (f" (+{len(conflicting) - 1} more denial(s))"
                  if len(conflicting) > 1 else "")
        findings.append(REGISTRY.make_finding(
            "XML-CONFLICT", _location(grant.policy),
            f"grants <{tag}> that policy#{sample_id} denies for "
            f"overlapping subjects ({witnesses}){others}; "
            f"deny wins at equal depth",
            fix_hint="narrow one subject specification or make the "
                     "precedence explicit with a deeper policy"))
    return findings


@REGISTRY.checker("XML-SHADOWED")
def check_shadowed(analysis: XmlPolicyAnalysis) -> list[Finding]:
    """One finding per live GRANT whose whole region live DENYs cover.

    Only a deny whose region shares a tag with the grant's can cover
    any of it, so denies are indexed by (privilege, tag) and each grant
    visits just those, in base order (which ``shadowing[:4]`` names).
    """
    denies = [d for d in analysis.denies() if not d.dead]
    by_tag: dict[tuple[object, str], list[int]] = {}
    for index, deny in enumerate(denies):
        for tag in deny.region:
            by_tag.setdefault((deny.policy.privilege, tag), []).append(
                index)
    findings = []
    for grant in analysis.grants():
        if grant.dead or not grant.subject_mask:
            continue
        shadowing: list[PolicySummary] = []
        uncovered = dict(grant.region)
        candidates = sorted({
            index for tag in uncovered
            for index in by_tag.get((grant.policy.privilege, tag), ())})
        for deny in map(denies.__getitem__, candidates):
            if not uncovered:
                break
            if not mask_covers(deny.subject_mask, grant.subject_mask):
                continue
            took_effect = False
            for tag, depth in list(uncovered.items()):
                if deny.region.get(tag, -1) >= depth:
                    del uncovered[tag]
                    took_effect = True
            if took_effect:
                shadowing.append(deny)
        if uncovered or not shadowing:
            continue
        deny_ids = ", ".join(f"policy#{d.policy.policy_id}"
                             for d in shadowing[:4])
        findings.append(REGISTRY.make_finding(
            "XML-SHADOWED", _location(grant.policy),
            f"every element type this grant reaches is denied at "
            f"equal-or-greater depth for all its subjects by {deny_ids}",
            fix_hint="delete the grant or weaken the covering denial"))
    return findings


def analyze_xml_policies(base: XmlPolicyBase, schema: Schema,
                         probes: Sequence[Subject] | None = None
                         ) -> Report:
    """Run every ``xml``-domain rule over one policy base + DTD."""
    analysis = XmlPolicyAnalysis.build(base, schema, probes)
    return Report(REGISTRY.run_domain("xml", analysis))

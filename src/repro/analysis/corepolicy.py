"""Whole-base static analysis for core (path-pattern) policies.

The ``policy`` rule domain: the :mod:`repro.core` analogue of the XML
policy checks in :mod:`repro.analysis.xmlpolicy`, built on the compiler
front-end (:mod:`repro.compile.pathdfa`) instead of a DTD graph:

* ``POL-DEAD`` — no subject in the probe universe satisfies the
  policy's credential expression: relative to that universe the policy
  can never fire;
* ``POL-CONFLICT`` — a GRANT and a DENY for the same action whose
  resource reaches overlap (decided by a pairwise path DFA, so the
  answer depends only on the two policies) and whose subject masks
  intersect: every request in the overlap resolves a conflict at
  runtime;
* ``POL-SHADOW`` — a GRANT such that at *every* explored path class it
  reaches, the union of same-action DENY policies applying there covers
  its whole subject mask: under deny-overrides the grant can never
  determine a decision.

Shard invariance: finding text depends only on the policies involved
(conflicts are decided on a two-policy DFA and name the pair and their
shared probe witnesses), never on which base or shard holds them.  A
sharded router is therefore analysed through its deduplicated union —
``analyze_core_policies(router.policies())`` — and the regression suite
asserts that report equals the monolithic one for shard counts 1–8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.findings import Finding, Report, Severity, REGISTRY
from repro.analysis.probes import (
    as_probe_list,
    describe_overlap,
    mask_covers,
    masks_overlap,
    probe_mask,
)
from repro.core.policy import Policy, Sign
from repro.core.subjects import Subject
from repro.compile.pathdfa import MergedPathDfa

REGISTRY.register(
    "POL-DEAD", Severity.WARNING, "policy",
    "no probe subject qualifies under the policy",
    "§3.2 subject specifications should be analyzable before "
    "deployment; a policy no known subject can ever satisfy is either "
    "a typo or intent drift")
REGISTRY.register(
    "POL-CONFLICT", Severity.WARNING, "policy",
    "grant/deny conflict on overlapping resources and subjects",
    "§3.2 conflict resolution should be a design-time decision, not a "
    "runtime surprise")
REGISTRY.register(
    "POL-SHADOW", Severity.WARNING, "policy",
    "grant shadowed everywhere by denials",
    "§3.2 deny-overrides resolution can silently void a policy; dead "
    "grants hide intent drift")


def patterns_overlap(policy_a: Policy, policy_b: Policy) -> bool:
    """Some path both policies' resource reaches contain.

    Decided on a two-policy merged DFA, so the verdict depends only on
    the pair — the property that keeps conflict findings identical no
    matter which shard (or monolithic base) the pair is analyzed in.
    """
    dfa = MergedPathDfa((policy_a, policy_b))
    dfa.explore()
    return any(state.applies_mask == 0b11 for state in dfa.states())


@dataclass
class CorePolicyAnalysis:
    """The context handed to ``policy``-domain checkers."""

    policies: tuple[Policy, ...]
    probes: Sequence[Subject]
    masks: list[int] = field(default_factory=list)
    _overlap_cache: dict[tuple[int, int], bool] = field(
        default_factory=dict)

    @classmethod
    def build(cls, policies: Iterable[Policy],
              probes: Sequence[Subject] | None = None
              ) -> "CorePolicyAnalysis":
        ordered = tuple(sorted(policies, key=lambda p: p.policy_id))
        probe_list = as_probe_list(probes)
        analysis = cls(ordered, probe_list)
        analysis.masks = [probe_mask(p.subject_expression, probe_list)
                          for p in ordered]
        return analysis

    def overlap(self, policy_a: Policy, policy_b: Policy) -> bool:
        key = (min(policy_a.policy_id, policy_b.policy_id),
               max(policy_a.policy_id, policy_b.policy_id))
        cached = self._overlap_cache.get(key)
        if cached is None:
            cached = patterns_overlap(policy_a, policy_b)
            self._overlap_cache[key] = cached
        return cached


def _location(policy: Policy) -> str:
    return f"policy#{policy.policy_id}"


@REGISTRY.checker("POL-DEAD")
def check_dead_policies(analysis: CorePolicyAnalysis) -> list[Finding]:
    findings = []
    for policy, mask in zip(analysis.policies, analysis.masks):
        if not mask:
            findings.append(REGISTRY.make_finding(
                "POL-DEAD", _location(policy),
                f"no subject in the {len(analysis.probes)}-probe "
                f"universe satisfies "
                f"{policy.subject_expression.description!r}",
                fix_hint="fix the credential expression or extend the "
                         "probe universe if the subject class is real"))
    return findings


@REGISTRY.checker("POL-CONFLICT")
def check_conflicts(analysis: CorePolicyAnalysis) -> list[Finding]:
    """One finding per conflicting (grant, deny) pair.

    Finding text names only the pair and the shared probe witnesses —
    both shard-independent — so per-shard duplicates from broadcast
    policies dedupe exactly.
    """
    grants = [(p, m) for p, m in zip(analysis.policies, analysis.masks)
              if p.sign is Sign.GRANT and m]
    denies = [(p, m) for p, m in zip(analysis.policies, analysis.masks)
              if p.sign is Sign.DENY and m]
    findings = []
    for grant, grant_mask in grants:
        for deny, deny_mask in denies:
            if deny.action is not grant.action:
                continue
            if not masks_overlap(grant_mask, deny_mask):
                continue
            if not analysis.overlap(grant, deny):
                continue
            witnesses = describe_overlap(grant_mask & deny_mask,
                                         analysis.probes)
            findings.append(REGISTRY.make_finding(
                "POL-CONFLICT", _location(grant),
                f"grant on {grant.resource} conflicts with "
                f"policy#{deny.policy_id} deny on {deny.resource} "
                f"for overlapping subjects ({witnesses})",
                fix_hint="narrow one resource pattern or subject "
                         "expression, or rely explicitly on the "
                         "resolution strategy"))
    return findings


@REGISTRY.checker("POL-SHADOW")
def check_shadowed(analysis: CorePolicyAnalysis) -> list[Finding]:
    """Grants that deny-overrides resolution can never let decide."""
    dfa = MergedPathDfa(analysis.policies)
    dfa.explore()
    states = [s for s in dfa.states() if s.applies_mask]
    findings = []
    for index, (grant, grant_mask) in enumerate(
            zip(analysis.policies, analysis.masks)):
        if grant.sign is not Sign.GRANT or not grant_mask:
            continue
        grant_bit = 1 << index
        reached = [s for s in states if s.applies_mask & grant_bit]
        if not reached:
            continue
        shadowing: set[int] = set()
        covered_everywhere = True
        for state in reached:
            deny_union = 0
            local_denies: list[int] = []
            for deny_index, deny in enumerate(analysis.policies):
                if (deny.sign is Sign.DENY
                        and deny.action is grant.action
                        and state.applies_mask >> deny_index & 1):
                    deny_union |= analysis.masks[deny_index]
                    local_denies.append(deny.policy_id)
            if not mask_covers(deny_union, grant_mask):
                covered_everywhere = False
                break
            shadowing.update(local_denies)
        if not covered_everywhere or not shadowing:
            continue
        deny_ids = ", ".join(
            f"policy#{policy_id}" for policy_id in sorted(shadowing)[:4])
        findings.append(REGISTRY.make_finding(
            "POL-SHADOW", _location(grant),
            f"every path class this grant reaches is denied for all "
            f"its subjects by {deny_ids} under deny-overrides",
            fix_hint="delete the grant or weaken the covering denial"))
    return findings


def dedupe_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Drop repeats of (rule, location, message), keeping first order."""
    seen: set[tuple[str, str, str]] = set()
    unique: list[Finding] = []
    for finding in findings:
        key = (finding.rule_id, finding.location, finding.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    return unique


def analyze_core_policies(policies: Iterable[Policy],
                          probes: Sequence[Subject] | None = None
                          ) -> Report:
    """Run every ``policy``-domain rule over a policy base (or any
    iterable of policies, e.g. a sharded router's ``policies()``)."""
    analysis = CorePolicyAnalysis.build(policies, probes)
    return Report(REGISTRY.run_domain("policy", analysis))

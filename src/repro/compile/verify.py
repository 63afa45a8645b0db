"""Static equivalence verification: compiled table ≡ interpreter.

For every *cell* of a compiled artifact — an eagerly explored path
class (which carries a concrete witness path), a credential-profile
class of the probe universe (which carries a witness subject), and an
action — this pass replays the witness request through a fresh
:class:`~repro.core.evaluator.PolicyEvaluator` (the interpreter) over the
source base and statically checks ``table[cell] ==
interpreter(cell)``, full :class:`~repro.core.evaluator.Decision`
equality: verdict, determining policy, applicable tuple and reason
string.

Disagreements are *explained, not masked*: each one is matched against
what the analysis layer already knows —

* content-dependent (residual) policies among the cell's candidates,
  whose conditions the table can only project at ``payload=None``
  (``COMPILE-RESIDUAL``, reported per residual policy regardless of
  disagreement);
* dead / conflicting / shadowed policies from the ``policy`` analysis
  domain (:mod:`repro.analysis.corepolicy`) touching the cell's
  policies.

A disagreement *no* finding explains is the verification failure mode:
``COMPILE-DIVERGE`` (error severity) — the canonical instance being a
stale artifact verified against a drifted base.  ``verdict`` is
``"proved"`` only when every cell agrees or is explained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.findings import Finding, Severity, REGISTRY
from repro.analysis.probes import as_probe_list
from repro.core.evaluator import Decision, PolicyEvaluator
from repro.core.policy import Action, PolicyBase
from repro.core.subjects import Subject

from repro.compile.table import CompiledPolicy

REGISTRY.register(
    "COMPILE-DIVERGE", Severity.ERROR, "compile",
    "compiled decision table disagrees with the interpreter",
    "a decision served from a table that is not provably equivalent to "
    "the policy interpreter silently rewrites the access control policy")
REGISTRY.register(
    "COMPILE-RESIDUAL", Severity.INFO, "compile",
    "content-dependent policy compiled as residual",
    "a condition over request payloads cannot be folded into a static "
    "table; the compiled engine interprets it per request, and the "
    "static proof covers only its payload-free projection")


@dataclass(frozen=True)
class CellDisagreement:
    """One cell where table and interpreter differ, with explanations."""

    state_id: int
    witness_path: str
    action: Action
    profile_mask: int
    subject_name: str
    compiled: Decision
    interpreted: Decision
    explanations: tuple[str, ...]

    @property
    def explained(self) -> bool:
        return bool(self.explanations)


@dataclass
class CompileVerification:
    """Outcome of one verification pass over a compiled artifact."""

    digest: str
    source_generation: int
    base_generation: int
    cells: int = 0
    disagreements: list[CellDisagreement] = field(default_factory=list)
    residual_policy_ids: tuple[int, ...] = ()

    @property
    def explained(self) -> int:
        return sum(1 for d in self.disagreements if d.explained)

    @property
    def unexplained(self) -> int:
        return sum(1 for d in self.disagreements if not d.explained)

    @property
    def verdict(self) -> str:
        return "proved" if self.unexplained == 0 else "refuted"

    def findings(self) -> list[Finding]:
        found = [
            REGISTRY.make_finding(
                "COMPILE-RESIDUAL", f"policy#{policy_id}",
                "content-dependent policy is interpreted per request; "
                "the static proof covers its payload-free projection "
                "condition(None)",
                fix_hint="lift the condition into the resource pattern "
                         "or subject expression to make it compilable")
            for policy_id in self.residual_policy_ids]
        for disagreement in self.disagreements:
            if disagreement.explained:
                continue
            found.append(REGISTRY.make_finding(
                "COMPILE-DIVERGE",
                f"cell(path={disagreement.witness_path!r}, "
                f"action={disagreement.action.value}, "
                f"subject={disagreement.subject_name})",
                f"table says granted={disagreement.compiled.granted} "
                f"({disagreement.compiled.reason}); interpreter says "
                f"granted={disagreement.interpreted.granted} "
                f"({disagreement.interpreted.reason}); no analysis "
                f"finding explains the divergence",
                fix_hint="recompile the artifact from the current "
                         "policy base (generation "
                         f"{self.base_generation} vs compiled "
                         f"{self.source_generation})"))
        return found

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "source_generation": self.source_generation,
            "base_generation": self.base_generation,
            "cells": self.cells,
            "disagreements": len(self.disagreements),
            "explained": self.explained,
            "unexplained": self.unexplained,
            "residual_policies": len(self.residual_policy_ids),
            "verdict": self.verdict,
        }


def _analysis_explanations(policies: Sequence) -> dict[int, list[str]]:
    """policy id → analysis findings naming it (dead/conflict/shadow)."""
    # Function-level import: corepolicy builds its overlap test on the
    # compile package, so a module-level import would be circular.
    from repro.analysis.corepolicy import analyze_core_policies
    report = analyze_core_policies(policies)
    by_policy: dict[int, list[str]] = {}
    for finding in report:
        for policy in policies:
            tag = f"policy#{policy.policy_id}"
            if tag == finding.location or tag in finding.message:
                by_policy.setdefault(policy.policy_id, []).append(
                    f"{finding.rule_id} at {finding.location}")
    return by_policy


def verify_compiled(artifact: CompiledPolicy, base: PolicyBase,
                    probes: Sequence[Subject] | None = None,
                    actions: Sequence[Action] | None = None
                    ) -> CompileVerification:
    """Prove (or refute) table ≡ interpreter over every static cell.

    *base* is the authority the artifact claims to compile; verifying
    an artifact against a drifted base is exactly how a stale table is
    caught.  *actions* defaults to every action the compiled policies
    mention plus READ (cells for unmentioned actions are all
    default-decision and carry no information).
    """
    probe_list = as_probe_list(
        probes if probes is not None else artifact.probes)
    interpreter = PolicyEvaluator(
        base, resolution=artifact.resolution, default=artifact.default)
    if actions is None:
        mentioned = {p.action for p in artifact.policies}
        mentioned.add(Action.READ)
        actions = sorted(mentioned, key=lambda a: a.value)
    classes = artifact.profile_classes(probe_list)
    residual_ids = tuple(
        p.policy_id for p in artifact.policies if p.condition is not None)
    result = CompileVerification(
        digest=artifact.digest,
        source_generation=artifact.source_generation,
        base_generation=getattr(base, "generation",
                                artifact.source_generation),
        residual_policy_ids=residual_ids)
    explanations_by_policy: dict[int, list[str]] | None = None
    for state in list(artifact.dfa.states()):
        if state.witness is None:
            continue
        witness_path = "/".join(state.witness)
        for action in actions:
            for profile in classes:
                result.cells += 1
                compiled = artifact.decide_cell(
                    state.state_id, action, profile.mask)
                interpreted = interpreter.decide(
                    profile.witness, action, witness_path)
                if compiled == interpreted:
                    continue
                if explanations_by_policy is None:
                    explanations_by_policy = _analysis_explanations(
                        artifact.policies)
                involved = {
                    artifact.policies[i].policy_id
                    for i in artifact.appliers(state.state_id).get(
                        action, ())
                    if profile.mask >> i & 1}
                involved.update(p.policy_id
                                for p in interpreted.applicable)
                explanations: list[str] = []
                for policy_id in sorted(involved):
                    if policy_id in set(residual_ids):
                        explanations.append(
                            f"COMPILE-RESIDUAL at policy#{policy_id}")
                    explanations.extend(
                        explanations_by_policy.get(policy_id, ()))
                result.disagreements.append(CellDisagreement(
                    state.state_id, witness_path, action, profile.mask,
                    profile.witness.identity.name, compiled,
                    interpreted, tuple(dict.fromkeys(explanations))))
    return result

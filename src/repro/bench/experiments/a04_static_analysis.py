"""A4 (ablation) — static policy analysis cost vs policy-base size.

The analyzer in :mod:`repro.analysis` inspects whole policy bases
without executing queries, so its cost must stay near-linear in the
number of policies or it cannot gate deployments of realistic size.
This experiment times :func:`analyze_xml_policies` over generated
Author-X bases of 100 / 1 000 / 10 000 policies (the credential-overlap
test is a per-policy bitmask, so the pairwise conflict check never
materializes the quadratic candidate set) and reports per-policy cost
alongside the finding counts.
"""

from __future__ import annotations

from repro.analysis.xmlpolicy import analyze_xml_policies
from repro.bench.harness import (
    ExperimentResult,
    failed,
    register,
    time_callable,
)
from repro.datagen.documents import hospital_schema
from repro.datagen.workload import xml_policy_workload


def verdict(result: ExperimentResult) -> list[str]:
    per_policy = [row[2] for row in result.rows]
    return failed(
        ([row[0] for row in result.rows] == [100, 1_000, 10_000],
         "the sweep covers 100, 1,000 and 10,000 policies"),
        # Forbids quadratic (100x), not superlinear: see EXPERIMENTS A4.
        (per_policy[-1] < per_policy[0] * 20,
         "us/policy at 10,000 policies stays under 20x its value at 100"),
        (all(row[3] > 0 for row in result.rows),
         "conflicts are found at every size"),
        (all(row[4] > 0 for row in result.rows),
         "dead policies are found at every size"),
    )


@register("A4", "static analysis of an n-policy Author-X base stays "
               "near-linear: credential overlap is a precomputed "
               "bitmask, not a pairwise expression comparison (§3.2)", verdict)
def run() -> ExperimentResult:
    schema = hospital_schema()
    rows = []
    per_policy_us = []
    for policy_count in (100, 1_000, 10_000):
        base = xml_policy_workload(policy_count, seed=11)

        def work() -> tuple[int, int, int]:
            report = analyze_xml_policies(base, schema)
            by_rule = {rule_id: len(report.by_rule(rule_id))
                       for rule_id in report.rule_ids()}
            return (by_rule.get("XML-CONFLICT", 0),
                    by_rule.get("XML-DEAD", 0),
                    by_rule.get("XML-SHADOWED", 0))

        elapsed, (conflicts, dead, shadowed) = time_callable(
            work, repeats=3)
        per_policy_us.append(elapsed * 1e6 / policy_count)
        rows.append([policy_count, elapsed * 1e3,
                     elapsed * 1e6 / policy_count,
                     conflicts, dead, shadowed])
    observations = [
        "per-policy cost grows far slower than the 100x base growth, "
        "so the whole-base sweep is deployable as a CI gate",
        "finding counts scale with the base because the generator "
        "seeds a fixed fraction of dead targets and blanket denials",
    ]
    return ExperimentResult(
        "A4", "Ablation: static XML policy analysis vs base size "
              "(conflicts, dead policies, shadowed grants)",
        ["policies", "total ms", "us/policy",
         "conflicts", "dead", "shadowed"],
        rows, observations)

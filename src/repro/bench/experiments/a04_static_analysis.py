"""A4 (ablation) — static policy analysis cost vs policy-base size.

The analyzer in :mod:`repro.analysis` inspects whole policy bases
without executing queries, so its cost must stay near-linear in the
number of policies or it cannot gate deployments of realistic size.
This experiment runs :func:`analyze_xml_policies` over generated
Author-X bases of 100 / 1 000 / 10 000 policies and counts its pairwise
credential tests (``masks_overlap`` and ``mask_covers`` calls: the
overlap test is a per-policy bitmask, and a grant tests each distinct
deny mask in its bucket once) per policy, alongside the finding counts.
"""

from __future__ import annotations

from repro.analysis import xmlpolicy
from repro.analysis.xmlpolicy import analyze_xml_policies
from repro.bench.harness import ExperimentResult, failed, register, tally
from repro.datagen.documents import hospital_schema
from repro.datagen.workload import xml_policy_workload


def verdict(result: ExperimentResult) -> list[str]:
    per_policy = [row[1] for row in result.rows]
    return failed(
        ([row[0] for row in result.rows] == [100, 1_000, 10_000],
         "the sweep covers 100, 1,000 and 10,000 policies"),
        # Forbids quadratic (100x), not superlinear: see EXPERIMENTS A4.
        (per_policy[-1] < per_policy[0] * 20,
         "credential tests per policy at 10,000 policies stay under 20x "
         "their value at 100"),
        (all(row[2] > 0 for row in result.rows),
         "conflicts are found at every size"),
        (all(row[3] > 0 for row in result.rows),
         "dead policies are found at every size"),
    )


@register("A4", "static analysis of an n-policy Author-X base stays "
               "near-linear: credential overlap is a precomputed "
               "bitmask, not a pairwise expression comparison (§3.2)", verdict)
def run() -> ExperimentResult:
    schema = hospital_schema()
    rows = []
    for policy_count in (100, 1_000, 10_000):
        base = xml_policy_workload(policy_count, seed=11)
        with tally(xmlpolicy, "masks_overlap") as overlaps, \
                tally(xmlpolicy, "mask_covers") as covers:
            report = analyze_xml_policies(base, schema)
        rows.append([policy_count,
                     (overlaps.count + covers.count) / policy_count,
                     len(report.by_rule("XML-CONFLICT")),
                     len(report.by_rule("XML-DEAD")),
                     len(report.by_rule("XML-SHADOWED"))])
    observations = [
        "per-policy cost grows far slower than the 100x base growth, "
        "so the whole-base sweep is deployable as a CI gate",
        "finding counts scale with the base because the generator "
        "seeds a fixed fraction of dead targets and blanket denials",
    ]
    return ExperimentResult(
        "A4", "Ablation: static XML policy analysis vs base size "
              "(conflicts, dead policies, shadowed grants)",
        ["policies", "tests/policy", "conflicts", "dead", "shadowed"],
        rows, observations)

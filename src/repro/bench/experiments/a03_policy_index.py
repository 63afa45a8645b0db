"""A3 (ablation) — the policy base's head-segment index.

DESIGN.md design choice: :class:`repro.core.policy.PolicyBase` indexes
policies by action and first literal resource segment so evaluation
touches only candidates.  This ablation counts the candidates each
decision examines with the index against a linear scan over the whole
base, across policy-base sizes — the "query processing algorithms may
need to take into consideration the access control policies" cost of
§3.1 made concrete.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register, tally
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase
from repro.datagen.population import generate_population
from repro.datagen.workload import subject_qualification_policies


class _ScanPolicyBase(PolicyBase):
    """PolicyBase with the head index disabled (full scan)."""

    def candidates(self, action, path):  # type: ignore[override]
        return [p for p in self._policies if p.action is action]


def verdict(result: ExperimentResult) -> list[str]:
    sizes = len(result.rows)
    return failed(
        (f"decisions identical with and without the index at {sizes}/"
         f"{sizes} sizes" in result.observations,
         "indexed and scanning evaluators decide identically at every "
         "size"),
        (all(row[1] < row[2] for row in result.rows),
         "indexed examines fewer candidates than scan at every size"),
    )


@register("A3", "ablation: the head-segment policy index vs scanning "
               "the whole policy base per decision (§3.1)", verdict)
def run() -> ExperimentResult:
    population = generate_population(50, seed=43)
    probes = list(population.subjects())[:25]
    resources = [f"hospital/records/r{n}/name" for n in range(1, 11)] \
        + [f"bank/accounts/a{n}" for n in range(1, 11)]
    rows = []
    identical = 0
    for policy_count in (50, 200, 800):
        indexed = subject_qualification_policies(
            policy_count, "role", user_count=50, seed=44)
        scanning = _ScanPolicyBase(list(indexed))
        indexed_eval = PolicyEvaluator(indexed)
        scan_eval = PolicyEvaluator(scanning)

        def decide(evaluator) -> tuple[int, float]:
            """Grants, and candidates examined per decision."""
            granted = 0
            with tally(type(evaluator.policy_base), "candidates",
                       len) as examined:
                for subject in probes:
                    for resource in resources:
                        if evaluator.check(subject, Action.READ,
                                           resource):
                            granted += 1
            return granted, examined.count / (len(probes) * len(resources))

        indexed_granted, indexed_examined = decide(indexed_eval)
        scan_granted, scan_examined = decide(scan_eval)
        identical += indexed_granted == scan_granted
        rows.append([policy_count, indexed_examined, scan_examined])
    observations = [
        "half the probe resources live outside the policies' head "
        "segment; the index prunes them to zero candidates",
        f"decisions identical with and without the index at "
        f"{identical}/{len(rows)} sizes",
    ]
    return ExperimentResult(
        "A3", "Ablation: policy head index vs full scan "
              f"({len(probes)} subjects x {len(resources)} resources)",
        ["policies", "indexed candidates/decision",
         "scan candidates/decision"],
        rows, observations)

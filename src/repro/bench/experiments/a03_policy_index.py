"""A3 (ablation) — the policy base's head-segment index.

DESIGN.md design choice: :class:`repro.core.policy.PolicyBase` indexes
policies by action and first literal resource segment so evaluation
touches only candidates.  This ablation compares decision latency with
the index against a linear scan over the whole base, across policy-base
sizes — the "query processing algorithms may need to take into
consideration the access control policies" cost of §3.1 made concrete.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, register, time_callable
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase
from repro.datagen.population import generate_population
from repro.datagen.workload import subject_qualification_policies


class _ScanPolicyBase(PolicyBase):
    """PolicyBase with the head index disabled (full scan)."""

    def candidates(self, action, path):  # type: ignore[override]
        return [p for p in self._policies if p.action is action]


@register("A3", "ablation: the head-segment policy index vs scanning "
               "the whole policy base per decision (§3.1)")
def run() -> ExperimentResult:
    population = generate_population(50, seed=43)
    probes = list(population.subjects())[:25]
    resources = [f"hospital/records/r{n}/name" for n in range(1, 11)] \
        + [f"bank/accounts/a{n}" for n in range(1, 11)]
    rows = []
    for policy_count in (50, 200, 800):
        indexed = subject_qualification_policies(
            policy_count, "role", user_count=50, seed=44)
        scanning = _ScanPolicyBase(list(indexed))
        indexed_eval = PolicyEvaluator(indexed)
        scan_eval = PolicyEvaluator(scanning)

        def decide(evaluator):
            def work() -> int:
                granted = 0
                for subject in probes:
                    for resource in resources:
                        if evaluator.check(subject, Action.READ,
                                           resource):
                            granted += 1
                return granted
            return work

        indexed_time, indexed_granted = time_callable(
            decide(indexed_eval), repeats=3)
        scan_time, scan_granted = time_callable(
            decide(scan_eval), repeats=3)
        assert indexed_granted == scan_granted  # identical decisions
        decisions = len(probes) * len(resources)
        rows.append([policy_count,
                     indexed_time * 1e6 / decisions,
                     scan_time * 1e6 / decisions,
                     scan_time / max(indexed_time, 1e-9)])
    observations = [
        "half the probe resources live outside the policies' head "
        "segment; the index prunes them to zero candidates",
        "decisions are asserted identical with and without the index",
    ]
    return ExperimentResult(
        "A3", "Ablation: policy head index vs full scan "
              f"({len(probes)} subjects x {len(resources)} resources)",
        ["policies", "indexed us/decision", "scan us/decision",
         "speedup"],
        rows, observations)

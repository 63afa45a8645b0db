"""E11 — The flexible security policy (§5).

Claim: "During some situations we may need one hundred percent security
while during some other situations say thirty percent security (whatever
that means) may be sufficient" — security must be dialable against
efficiency.

Operationalization: sweep the dial 0..100 over the default measure
catalogue; report throughput, cost and residual risk, then drive a
simulated incident through the situational presets and measure how the
operating point moves.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.semweb.flexible import (
    FlexiblePolicy,
    SituationalPolicy,
)


def verdict(result: ExperimentResult) -> list[str]:
    dials = [row[0] for row in result.rows]
    throughputs = [row[3] for row in result.rows]
    risks = [row[4] for row in result.rows]
    thirty = [row[4] for row in result.rows if row[0] == 30]
    return failed(
        (dials == sorted(dials), "the dial rises down the table"),
        (throughputs == sorted(throughputs, reverse=True),
         "throughput falls as the dial rises"),
        (risks == sorted(risks, reverse=True),
         "residual risk falls as the dial rises"),
        (risks[-1] == 0.0, "full security leaves zero residual risk"),
        (throughputs[-1] < throughputs[0], "full security costs throughput"),
        (any(0 < risk < 1 for risk in thirty),
         "'thirty percent security' leaves a residual risk in (0, 1)"),
    )


@register("E11", "a flexible security dial trades residual risk against "
                "throughput; situations pick the operating point (§5)",
          verdict)
def run() -> ExperimentResult:
    policy = FlexiblePolicy()
    rows = []
    for dial in range(0, 101, 10):
        point = policy.operating_point(dial)
        rows.append([dial, len(point.active_measures),
                     point.cost_per_request, point.throughput,
                     point.residual_risk])

    situational = SituationalPolicy(policy)
    trajectory = []
    for situation in ("relaxed", "normal", "elevated", "under-attack",
                      "normal"):
        point = situational.escalate_to(situation)
        trajectory.append(
            f"{situation}@{situational.dial()}: "
            f"thr {point.throughput:.2f}, risk {point.residual_risk:.2f}")
    minimal_for_inference = policy.minimal_dial_covering({"inference"})
    observations = [
        "incident trajectory: " + " -> ".join(trajectory),
        f"'thirty percent security' means: the measures active at dial "
        f"30 = {policy.operating_point(30).active_measures}",
        f"covering inference attacks requires dial >= "
        f"{minimal_for_inference} — the expensive controls arrive last",
    ]
    return ExperimentResult(
        "E11", "Flexible security: the dial's risk/throughput frontier",
        ["dial", "measures", "cost/request", "throughput",
         "residual risk"],
        rows, observations)

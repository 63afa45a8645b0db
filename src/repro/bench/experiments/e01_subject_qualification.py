"""E1 — Subject qualification at web scale (§3.1).

Claim: "traditional identity-based mechanisms for performing access
control are not enough" for web populations; role/credential
qualification is needed.

Operationalization: to give a population of N users access to a fixed
resource set, count how many policies each basis needs and how decision
latency scales.  Identity-based bases need O(N) policies; role and
credential bases stay O(#roles)/O(#attributes).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, register, time_callable
from repro.core.credentials import (
    attribute_equals,
    has_role,
    is_identity,
)
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, grant
from repro.datagen.population import DEPARTMENTS, generate_population


def _coverage_policy_base(basis: str, directory) -> PolicyBase:
    """Policies granting every *authorized* user READ on the records.

    Authorized = holds the doctor role (directly or via a physician
    credential).  Identity basis must enumerate those users one by one.
    """
    base = PolicyBase()
    resource = "hospital/records/**"
    if basis == "identity":
        for subject in directory.subjects():
            if any(r.name == "doctor" for r in subject.roles):
                base.add(grant(is_identity(subject.identity.name),
                               Action.READ, resource))
    elif basis == "role":
        base.add(grant(has_role("doctor"), Action.READ, resource))
    else:  # credential
        for department in DEPARTMENTS:
            base.add(grant(attribute_equals("physician", "department",
                                            department),
                           Action.READ, resource))
    return base


@register("E1", "identity-based access control does not scale to web "
               "populations; role/credential qualification does (§3.1)")
def run() -> ExperimentResult:
    rows = []
    observations = []
    for population_size in (100, 500, 2000):
        directory = generate_population(population_size, seed=1)
        subjects = list(directory.subjects())
        probe = subjects[: min(200, len(subjects))]
        for basis in ("identity", "role", "credential"):
            base = _coverage_policy_base(basis, directory)
            evaluator = PolicyEvaluator(base)

            def workload() -> int:
                granted = 0
                for subject in probe:
                    if evaluator.check(subject, Action.READ,
                                       "hospital/records/r1/name"):
                        granted += 1
                return granted

            latency, granted = time_callable(workload, repeats=3)
            rows.append([population_size, basis, len(base),
                         latency * 1e6 / len(probe), granted])
    identity_growth = rows[6][2] / max(rows[0][2], 1)
    role_growth = rows[7][2] / max(rows[1][2], 1)
    observations.append(
        f"policy count growth 100->2000 users: identity x{identity_growth:.0f}, "
        f"role x{role_growth:.0f} (flat)")
    return ExperimentResult(
        "E1", "Subject qualification: policies needed and decision latency",
        ["users", "basis", "policies", "us/decision", "granted"],
        rows, observations)

"""E10 — P3P matching and policy propagation (§4.2).

Claim: the WSA must let consumers evaluate advertised P3P policies and
must "enable delegation and propagation of privacy policy".

Operationalization: a synthetic service ecosystem with varying practice
invasiveness; sweep consumer strictness → acceptance rate; then build
delegation chains of growing length and count the broadening violations
only the propagation check catches.  Finally run the five-requirement
WSA audit on compliant and sloppy deployments.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult, failed, register
from repro.p3p.matching import chain_acceptable, match, propagation_violations
from repro.p3p.policy import (
    DataCategory,
    P3PPolicy,
    Purpose,
    Recipient,
    Retention,
    statement,
)
from repro.p3p.preferences import strictness_profile
from repro.p3p.wsa_requirements import ServiceRegistration, WsaPrivacyAudit

PURPOSE_LADDER = [Purpose.CURRENT, Purpose.ADMIN, Purpose.TAILORING,
                  Purpose.PSEUDO_ANALYSIS, Purpose.INDIVIDUAL_ANALYSIS,
                  Purpose.CONTACT, Purpose.TELEMARKETING]
RECIPIENT_LADDER = [Recipient.OURS, Recipient.DELIVERY, Recipient.SAME,
                    Recipient.OTHER_RECIPIENT, Recipient.UNRELATED,
                    Recipient.PUBLIC]
RETENTION_LADDER = [Retention.NO_RETENTION, Retention.STATED_PURPOSE,
                    Retention.BUSINESS_PRACTICES, Retention.INDEFINITELY]


def _random_policy(rng: random.Random, entity: str,
                   invasiveness: float) -> P3PPolicy:
    """invasiveness in [0,1]: how far up each ladder the policy reaches."""

    def pick(ladder):
        ceiling = max(1, round(invasiveness * len(ladder)))
        return ladder[rng.randrange(ceiling)]

    statements = []
    for category in rng.sample(list(DataCategory), k=3):
        statements.append(statement(
            [category],
            {pick(PURPOSE_LADDER), Purpose.CURRENT},
            {pick(RECIPIENT_LADDER), Recipient.OURS},
            pick(RETENTION_LADDER)))
    return P3PPolicy(entity, tuple(statements))


def verdict(result: ExperimentResult) -> list[str]:
    accepted = [row[2] for row in result.rows]
    chains = [o for o in result.observations if o.startswith("len=")]
    audit = next((o for o in result.observations if "audit" in o), "")
    return failed(
        (accepted == sorted(accepted, reverse=True),
         "acceptance falls with consumer strictness"),
        (accepted[0] == 80, "anything-goes accepts all 80 services"),
        (accepted[-1] < accepted[0],
         "the strictest profile accepts fewer than anything-goes"),
        (bool(chains)
         and all(int(line.rsplit(" ", 1)[1]) > 0 for line in chains),
         "propagation checking catches broadening at every chain length"),
        ("passes 5/5" in audit, "the compliant deployment passes 5/5"),
    )


@register("E10", "consumers can gate on P3P policies; delegation chains "
                "need explicit propagation checks (§4.2)", verdict)
def run() -> ExperimentResult:
    rng = random.Random(17)
    services = [
        _random_policy(rng, f"svc{index}", invasiveness=rng.random())
        for index in range(80)]
    rows = []
    for level in range(4):
        preferences = strictness_profile(level)
        accepted = sum(1 for policy in services
                       if match(policy, preferences))
        baseline_ok = sum(1 for policy in services
                          if policy.conforms_to_baseline())
        rows.append([level, preferences.name, accepted,
                     len(services) - accepted, baseline_ok])

    # Delegation chains: entry service always modest, later hops random.
    chain_rows = []
    categories = [DataCategory.ONLINE, DataCategory.PHYSICAL]
    preferences = strictness_profile(1)
    for chain_length in (2, 3, 5):
        entry_ok = 0
        chain_ok = 0
        violations_caught = 0
        trials = 60
        for _ in range(trials):
            chain = [_random_policy(rng, "entry", 0.2)] + [
                _random_policy(rng, f"hop{i}", rng.random())
                for i in range(chain_length - 1)]
            if match(chain[0], preferences):
                entry_ok += 1
                problems = propagation_violations(chain, categories)
                if problems:
                    violations_caught += 1
                if chain_acceptable(chain, categories, preferences):
                    chain_ok += 1
        chain_rows.append(
            f"len={chain_length}: entry-ok {entry_ok}/{trials}, "
            f"chain-ok {chain_ok}, broadening caught "
            f"{violations_caught}")

    # WSA requirements audit.
    good = P3PPolicy("good", (statement(
        [DataCategory.ONLINE], [Purpose.CURRENT], [Recipient.OURS],
        Retention.STATED_PURPOSE),))
    compliant = WsaPrivacyAudit([
        ServiceRegistration("a", good),
        ServiceRegistration("b", good),
    ]).run()
    sloppy = WsaPrivacyAudit([
        ServiceRegistration("a", None),
        ServiceRegistration("b", good, policy_retrievable=False,
                            supports_anonymous=False),
    ]).run()
    observations = chain_rows + [
        f"WSA five-requirement audit: compliant deployment passes "
        f"{sum(r.passed for r in compliant.results)}/5, sloppy "
        f"deployment passes {sum(r.passed for r in sloppy.results)}/5",
        "checking only the entry policy accepts chains whose later hops "
        "broaden the practices — the propagation requirement exists for "
        "a reason",
    ]
    return ExperimentResult(
        "E10", "P3P: acceptance vs consumer strictness (80 services)",
        ["strictness", "profile", "accepted", "rejected",
         "baseline-conformant"],
        rows, observations)

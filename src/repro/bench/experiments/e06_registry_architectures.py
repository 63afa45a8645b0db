"""E6 — Two-party vs third-party registries under compromise (§4.1).

Claim: "if a two-party architecture is adopted, security properties can
be ensured using the strategies adopted in conventional DBMSs ... such
standard mechanisms must be revised when a third-party architecture is
adopted" because "large web-based systems cannot be easily verified to
be trusted and can be easily penetrated".

Operationalization: the same workload against (a) a two-party registry,
(b) an honest third-party agency, (c) a compromised third-party agency —
counting confidential rows leaked and forged answers *accepted* (after
client-side Merkle verification).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.credentials import anyone, has_role
from repro.core.errors import AccessDenied, AuthenticationError
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.subjects import Role, Subject
from repro.uddi.architectures import (
    ThirdPartyDeployment,
    TwoPartyDeployment,
)
from repro.uddi.model import make_business, make_service
from repro.uddi.registry import UddiRegistry
from repro.uddi.secure import verify_authenticated_answer

PARTNER = Subject("partner-user", roles={Role("partner")})
STRANGER = Subject("stranger")


def _entities(count: int):
    entities = []
    for index in range(count):
        entity = make_business(f"Provider-{index:03d}")
        entity = entity.with_service(make_service(
            f"public-api-{index}", category="catalog",
            access_point=f"http://p{index}/public"))
        entity = entity.with_service(make_service(
            f"partner-feed-{index}", category="premium",
            access_point=f"http://p{index}/premium"))
        entities.append(entity)
    return entities


def _evaluator(entities, registry_name: str) -> PolicyEvaluator:
    policies = [grant(anyone(), Action.WRITE, "uddi/**"),
                grant(anyone(), Action.READ, "uddi/**")]
    for entity in entities:
        premium = entity.services[1].service_key
        policies.append(deny(
            ~has_role("partner"), Action.READ,
            f"uddi/{registry_name}/{entity.business_key}/{premium}"))
    return PolicyEvaluator(PolicyBase(policies))


def verdict(result: ExperimentResult) -> list[str]:
    leaked = {(row[0], row[1]): row[2] for row in result.rows}
    return failed(
        (leaked["two-party", "honest"] == 0,
         "an honest two-party registry leaks no premium rows"),
        (leaked["third-party", "honest"] == 0,
         "an honest third-party registry leaks no premium rows"),
        (leaked["third-party", "compromised"] > 0,
         "a compromised agency leaks premium rows"),
        (all(row[3] == 0 for row in result.rows),
         "no deployment accepts a forgery"),
    )


@register("E6", "conventional access control suffices two-party; an "
               "untrusted third party needs client-verifiable answers (§4.1)",
          verdict)
def run() -> ExperimentResult:
    entities = _entities(12)
    rows = []

    # (a) two-party: provider runs its own registry.
    two_party = TwoPartyDeployment(
        "self", UddiRegistry("own"), _evaluator(entities, "own"))
    for entity in entities:
        two_party.publish(Subject("self"), entity)
    browse = two_party.find_service(STRANGER)
    leaked = sum(1 for row in browse if row.category == "premium")
    denied = 0
    for entity in entities:
        try:
            two_party.get_service_detail(
                STRANGER, entity.services[1].service_key)
        except AccessDenied:
            denied += 1
    rows.append(["two-party", "honest", leaked, 0, denied])

    # (b) honest third party.
    def third_party():
        deployment = ThirdPartyDeployment(
            _evaluator(entities, "third-party"))
        keys = {}
        for index, entity in enumerate(entities):
            provider = f"prov{index}"
            keys[provider] = deployment.register_provider(
                provider, key_seed=100 + index)
            deployment.publish(provider, entity)
        return deployment, keys

    deployment, keys = third_party()
    browse = deployment.find_service(STRANGER)
    leaked = sum(1 for row in browse if row.category == "premium")
    accepted_forgeries = 0
    denied = 0
    for index, entity in enumerate(entities):
        try:
            answer = deployment.get_service_detail(
                STRANGER, entity.services[0].service_key)
            verify_authenticated_answer(answer, keys[f"prov{index}"])
        except AccessDenied:
            denied += 1
        except AuthenticationError:
            pass
    rows.append(["third-party", "honest", leaked, accepted_forgeries,
                 denied])

    # (c) compromised third party.
    deployment, keys = third_party()
    deployment.compromise()
    browse = deployment.find_service(STRANGER)
    leaked = sum(1 for row in browse if row.category == "premium")
    accepted_forgeries = 0
    detected = 0
    for index, entity in enumerate(entities):
        answer = deployment.get_service_detail(
            STRANGER, entity.services[0].service_key)
        try:
            verify_authenticated_answer(answer, keys[f"prov{index}"])
            accepted_forgeries += 1
        except AuthenticationError:
            detected += 1
    rows.append(["third-party", "compromised", leaked,
                 accepted_forgeries, 0])
    observations = [
        "a compromised agency leaks every confidential browse row — "
        "confidentiality needs encryption (cf. EncryptedRegistry), not "
        "agency goodwill",
        f"integrity survives compromise: {detected} forged answers, "
        f"0 accepted — the [4] mechanism's whole point",
    ]
    return ExperimentResult(
        "E6", "Registry architectures under an honest vs compromised "
              "discovery agency",
        ["architecture", "agency", "premium rows leaked",
         "forgeries accepted", "denials enforced"],
        rows, observations)

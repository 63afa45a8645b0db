"""E5 — Merkle authentication of UDDI answers ([4], §4.1).

Claim: one *summary signature* per entry lets the discovery agency serve
verifiable partial answers; the alternative, "directly apply standard
digital signature techniques", would require a signature per possible
view (or an online provider signing every answer).

Operationalization: registry size sweep; compare signatures the provider
must produce (Merkle: one per entry; baseline: one per service-detail
view) and the filler-hash overhead of verifying each answer.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.crypto.rsa import generate_keypair, sign
from repro.datagen.registry_gen import generate_businesses
from repro.uddi.registry import UddiRegistry
from repro.uddi.secure import (
    AuthenticatedRegistry,
    sign_entry,
    verify_authenticated_answer,
)
from repro.xmldb.serializer import serialize_element


def verdict(result: ExperimentResult) -> list[str]:
    return failed(
        (all(row[1] == row[0] for row in result.rows),
         "merkle sigs equal businesses (one signature per entry)"),
        (all(row[2] > row[1] for row in result.rows),
         "baseline sigs exceed merkle sigs"),
    )


@register("E5", "Merkle summary signatures authenticate partial UDDI "
               "answers with one signature per entry ([4])", verdict)
def run() -> ExperimentResult:
    keys = generate_keypair(bits=512, seed=9)
    rows = []
    for business_count in (10, 40, 160):
        businesses = generate_businesses(business_count, seed=10)
        registry = AuthenticatedRegistry(UddiRegistry())

        for entity in businesses:
            registry.publish(entity,
                             sign_entry(entity, "provider", keys.private),
                             "provider")
        merkle_signatures = business_count

        # Baseline: sign every possible service-detail view up front.
        baseline_signatures = 0
        for entity in businesses:
            for service in entity.services:
                sign(keys.private,
                     serialize_element(service.to_element()))
                baseline_signatures += 1
            # plus the full-entry view
            sign(keys.private, serialize_element(entity.to_element()))
            baseline_signatures += 1

        # Query: drill down into every service, verify each answer.
        total_fillers = 0
        queries = 0
        for entity in businesses[: min(20, business_count)]:
            for service in entity.services:
                answer = registry.get_service_detail(service.service_key)
                verify_authenticated_answer(answer, keys.public)
                total_fillers += answer.proof_hash_count()
                queries += 1
        rows.append([business_count, merkle_signatures,
                     baseline_signatures,
                     total_fillers / max(queries, 1)])
    observations = [
        "signatures the provider must produce: Merkle = entries; "
        "baseline = entries + every service view (grows with fan-out)",
        "verification is local to the requestor and needs only the "
        "filler hashes — the agency stays untrusted",
    ]
    return ExperimentResult(
        "E5", "UDDI authentication: signing and verification costs",
        ["businesses", "merkle sigs", "baseline sigs", "fillers/q"],
        rows, observations)

"""E4 — Third-party publishing: verifiable answers from an untrusted
publisher ([3], §3.2).

Claim: subjects can "verify the authenticity and completeness of the
received answer" without trusting the publisher.

Operationalization: corpus + subject mix; count the proof overhead
(filler hashes, against the document's element count) of the Merkle
scheme, check the trusted-owner baseline (owner signs each subject's
view individually — which forces the *owner* to be online per query),
and show the detection rate of each attack is 100%.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.credentials import anyone, has_role
from repro.crypto.rsa import generate_keypair, sign, verify
from repro.datagen.documents import hospital_corpus
from repro.datagen.population import named_cast
from repro.pubsub import MaliciousPublisher, Owner, Publisher, SubjectVerifier
from repro.xmldb.serializer import serialize
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant
from repro.xmlsec.views import compute_view


def _policy_base() -> XmlPolicyBase:
    return XmlPolicyBase([
        xml_grant(has_role("doctor"), "/hospital"),
        xml_deny(anyone(), "//ssn"),
        xml_grant(has_role("nurse"), "//record/name"),
        xml_grant(has_role("researcher"), "//record/diagnosis"),
    ])


def verdict(result: ExperimentResult) -> list[str]:
    detection = next((o for o in result.observations
                      if o.startswith("attack detection")), "")
    nurse = [row for row in result.rows if row[2] == "nurse"]
    answers = len(result.rows)
    return failed(
        (f"honest answers verified: {answers}/{answers} Merkle proofs, "
         f"{answers}/{answers} owner signatures" in result.observations,
         "every honest answer's proof and owner signature verifies"),
        *((f"{attack} 3/3" in detection, f"every {attack} attack is detected")
          for attack in ("tamper", "omit", "swap")),
        (nurse[-1][3] > nurse[0][3],
         "the nurse's filler hashes grow with the corpus"),
        (all(row[3] < row[1] for row in result.rows),
         "each answer's proof carries fewer hashes than the document "
         "has elements"),
    )


@register("E4", "untrusted publishers can prove authenticity AND "
               "completeness of partial answers ([3])", verdict)
def run() -> ExperimentResult:
    cast = named_cast()
    subjects = [("doctor", cast.doctor), ("nurse", cast.nurse),
                ("researcher", cast.researcher)]
    rows = []
    proofs = signatures = 0
    for record_count in (10, 40, 160):
        base = _policy_base()
        document = hospital_corpus(record_count, seed=5)
        owner = Owner("hospital", base, key_seed=6)
        owner.add_document("h", document)
        publisher = Publisher()
        owner.publish_to(publisher)
        for name, subject in subjects:
            answer = publisher.request(subject, "h")
            verifier = SubjectVerifier(subject, owner.public_key, base)
            proofs += verifier.verify(answer).ok
            # Baseline: owner online, signs this subject's view directly.
            owner_keys = generate_keypair(bits=512, seed=7)
            view, _ = compute_view(base, subject, "h", document)
            payload = serialize(view)
            signature = sign(owner_keys.private, payload)
            signatures += verify(owner_keys.public, payload, signature)
            rows.append([record_count, document.size(), name,
                         answer.proof_hash_count()])

    # Attack detection sweep.
    base = _policy_base()
    document = hospital_corpus(40, seed=5)
    owner = Owner("hospital", base, key_seed=6)
    owner.add_document("h", document)
    owner.add_document("h2", hospital_corpus(5, seed=8))
    detected = {}
    for mode in ("tamper", "omit", "swap"):
        publisher = MaliciousPublisher(mode)
        owner.publish_to(publisher)
        trials = 0
        caught = 0
        for _name, subject in subjects:
            answer = publisher.request(subject, "h")
            report = SubjectVerifier(
                subject, owner.public_key, base).verify(answer)
            trials += 1
            if not report.ok:
                caught += 1
        detected[mode] = (caught, trials)
    observations = [
        "the Merkle scheme needs no online owner: one summary signature "
        "per document serves every subject and every query",
        f"honest answers verified: {proofs}/{len(rows)} Merkle proofs, "
        f"{signatures}/{len(rows)} owner signatures",
        "attack detection: " + ", ".join(
            f"{mode} {caught}/{trials}"
            for mode, (caught, trials) in detected.items()),
    ]
    return ExperimentResult(
        "E4", "Third-party publishing: proof size, verification cost, "
              "attack detection",
        ["records", "elements", "subject", "filler hashes"],
        rows, observations)

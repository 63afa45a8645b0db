"""E3 — Secure dissemination: keys per policy configuration ([5], §4.1).

Claim: "all the entry portions to which the same policies apply are
encrypted with the same key" — so one encrypted copy serves every
subscriber, and the number of keys scales with the number of *policy
configurations*, not subscribers.

Operationalization: sweep the subscriber population; compare the
Author-X scheme (one packet, keys = configurations) against the naive
baseline (encrypt each subscriber's view separately): #keys and
ciphertext bytes prepared.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.credentials import anyone, attribute_equals, has_role
from repro.crypto.keys import KeyStore
from repro.datagen.documents import hospital_corpus
from repro.datagen.population import generate_population
from repro.xmldb.serializer import serialize
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant
from repro.xmlsec.dissemination import Disseminator
from repro.xmlsec.views import compute_view


def _policy_base() -> XmlPolicyBase:
    base = XmlPolicyBase()
    base.add(xml_grant(has_role("doctor"), "/hospital"))
    base.add(xml_deny(anyone(), "//ssn"))
    base.add(xml_grant(has_role("nurse"), "//record/name"))
    base.add(xml_grant(has_role("nurse"), "//record/treatment"))
    base.add(xml_grant(has_role("researcher"), "//record/diagnosis"))
    for department in ("oncology", "cardiology", "pediatrics"):
        base.add(xml_grant(
            attribute_equals("physician", "department", department),
            f"//record[department='{department}']/billing"))
    return base


def verdict(result: ExperimentResult) -> list[str]:
    first, last = result.rows[0], result.rows[-1]
    return failed(
        (first[1] == last[1], "authorx keys do not grow with subscribers"),
        (last[2] > first[2] * 5, "naive keys grow more than 5x"),
        (last[3] < last[4], "authorx KiB < naive KiB at the most subscribers"),
    )


@register("E3", "dissemination encrypts once per policy configuration; "
               "keys do not grow with the subscriber population ([5])",
          verdict)
def run() -> ExperimentResult:
    document = hospital_corpus(40, seed=3)
    base = _policy_base()
    rows = []
    for subscribers in (10, 50, 200):
        population = generate_population(subscribers, seed=4)
        subjects = {s.identity.name: s for s in population.subjects()}

        # Author-X scheme: one packaging pass + key distribution.
        disseminator = Disseminator(base)
        packet = disseminator.package("h", document)
        distributor = disseminator.distributor(subjects)
        for name in subjects:
            distributor.grant(name)
        authorx_keys = disseminator.key_count()
        authorx_bytes = packet.total_bytes()

        # Naive baseline: per-subscriber view, each encrypted under a
        # per-subscriber key.
        naive_store = KeyStore("naive")
        naive_bytes = 0
        for name, subject in subjects.items():
            view, _stats = compute_view(base, subject, "h", document)
            if view is None:
                continue
            key_id = f"subscriber:{name}"
            naive_store.get_or_create(key_id)
            ciphertext = naive_store.encrypt(key_id, serialize(view))
            naive_bytes += len(ciphertext)
        rows.append([subscribers, authorx_keys, len(naive_store),
                     authorx_bytes / 1024, naive_bytes / 1024])
    observations = [
        "Author-X key count stays flat as subscribers grow; the naive "
        "scheme needs one key and one ciphertext per subscriber",
        "the single Author-X packet is smaller than the sum of "
        "per-subscriber ciphertexts once subscribers outnumber "
        "configurations",
    ]
    return ExperimentResult(
        "E3", "Dissemination: policy-configuration keys vs per-subscriber "
              "encryption",
        ["subscribers", "authorx keys", "naive keys", "authorx KiB",
         "naive KiB"],
        rows, observations)

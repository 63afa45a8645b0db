"""A2 (ablation) — deny-aware policy configurations in dissemination.

DESIGN.md design choice: a dissemination configuration records, per
grant, the DENY policies dominating it, and key distribution checks
both.  The obvious simplification — configurations from GRANT policies
only, denies ignored — silently hands subscribers keys for portions a
deny forbids.  This ablation quantifies that leak on the hospital
workload.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.credentials import anyone, has_role
from repro.datagen.documents import hospital_corpus
from repro.datagen.population import named_cast
from repro.xmlsec.authorx import XmlPolicyBase, XmlSign, xml_deny, xml_grant
from repro.xmlsec.dissemination import (
    element_configurations,
    subject_can_unlock,
)


def _policy_base() -> XmlPolicyBase:
    return XmlPolicyBase([
        xml_grant(has_role("doctor"), "/hospital"),
        xml_deny(anyone(), "//ssn"),
        xml_grant(has_role("nurse"), "//record/name"),
        xml_deny(has_role("nurse"), "//record[department='oncology']"),
    ])


def verdict(result: ExperimentResult) -> list[str]:
    doctor = [row for row in result.rows if row[1] == "doctor"]
    nurse = [row for row in result.rows if row[1] == "nurse"]
    return failed(
        (all(row[3] == row[0] for row in doctor),
         "grant-only configurations leak one element per record to the "
         "doctor"),
        (all("ssn" in row[4] for row in doctor),
         "the doctor's leaked tags include the SSN"),
        (all(row[3] == 0 for row in nurse), "the nurse leaks nothing"),
    )


@register("A2", "ablation: ignoring DENY policies when forming "
               "dissemination configurations leaks forbidden portions",
          verdict)
def run() -> ExperimentResult:
    cast = named_cast()
    base = _policy_base()
    grants_only = XmlPolicyBase(
        [p for p in base if p.sign is XmlSign.GRANT])
    rows = []
    for record_count in (20, 80):
        document = hospital_corpus(record_count, seed=42)
        full = element_configurations(base, "h", document)
        naive = element_configurations(grants_only, "h", document)
        by_id = {id(node): node for node in document.iter()}
        for name, subject in (("doctor", cast.doctor),
                              ("nurse", cast.nurse)):
            leaked = 0
            unlockable = 0
            for node_id, configuration in naive.items():
                if not subject_can_unlock(grants_only, subject,
                                          configuration):
                    continue
                unlockable += 1
                # Does the deny-aware model forbid this element?
                if not subject_can_unlock(base, subject,
                                          full[node_id]):
                    leaked += 1
            forbidden_tags = sorted({
                by_id[node_id].tag
                for node_id, configuration in naive.items()
                if subject_can_unlock(grants_only, subject,
                                      configuration)
                and not subject_can_unlock(base, subject,
                                           full[node_id])})
            rows.append([record_count, name, unlockable, leaked,
                         ",".join(forbidden_tags[:4]) or "-"])
    observations = [
        "grant-only configurations hand the doctor keys for every SSN — "
        "exactly what the universal DENY forbids",
        "the nurse leaks nothing either way: her name grant attaches "
        "deeper than the oncology deny, so most-specific-wins lets it "
        "through in both models (Author-X semantics, same as views)",
        "the deny-aware model (each grant paired with its dominating "
        "denies) leaks nothing by construction",
    ]
    return ExperimentResult(
        "A2", "Ablation: grant-only vs deny-aware dissemination "
              "configurations (elements the naive model over-unlocks)",
        ["records", "subject", "unlockable elements",
         "leaked vs deny-aware", "leaked tags"],
        rows, observations)

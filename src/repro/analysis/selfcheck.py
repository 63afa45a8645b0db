"""Seeded-defect fixtures proving every rule can fire.

``python -m repro.analysis --self-check`` builds a miniature deployment
with one instance of each defect class the analyzer knows about, runs
every domain, and verifies each registered rule reports its seeded
defect — the analyzer analyzing itself, the gate CI runs before trusting
the lint/analysis results on real code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.channels import analyze_privacy
from repro.analysis.codelint import lint_source
from repro.analysis.corepolicy import analyze_core_policies
from repro.analysis.findings import Report
from repro.analysis.grants import analyze_grants
from repro.analysis.mlsrdf import analyze_rdf
from repro.analysis.xmlpolicy import analyze_xml_policies
from repro.core.credentials import anyone, has_role
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.core.mls import Label, Level
from repro.datagen.documents import hospital_schema
from repro.privacy.constraints import PrivacyConstraintSet, PrivacyLevel
from repro.rdfdb.containers import create_container
from repro.rdfdb.model import IRI, Literal, Triple
from repro.rdfdb.reification import reify
from repro.rdfdb.security import SecureRdfStore
from repro.relational.authorization import (
    AuthorizationManager,
    Privilege,
)
from repro.xmlsec.authorx import XmlPolicyBase, xml_deny, xml_grant


def seeded_xml_policy_base() -> XmlPolicyBase:
    """Conflict on //record/ssn, dead //prescription, shadowed grant."""
    base = XmlPolicyBase()
    base.add(xml_grant(has_role("doctor"), "//record/ssn"))       # conflict
    base.add(xml_deny(anyone(), "//record/ssn"))                  # vs this
    base.add(xml_grant(has_role("nurse"), "//prescription"))      # dead
    base.add(xml_grant(has_role("nurse"), "//billing/amount"))    # shadowed
    base.add(xml_deny(anyone(), "//billing/amount"))              # by this
    base.add(xml_grant(has_role("doctor"), "/hospital/record"))   # healthy
    return base


def seeded_core_policy_base() -> PolicyBase:
    """Conflict on records/ssn, a dead grant, a shadowed grant."""
    base = PolicyBase()
    base.add(grant(has_role("doctor"), Action.READ, "records/**"))
    base.add(deny(anyone(), Action.READ, "records/ssn"))     # conflict
    base.add(grant(has_role("ghost-role"), Action.WRITE,
                   "labs/*"))                                # dead
    base.add(grant(has_role("nurse"), Action.WRITE,
                   "archive/old"))                           # shadowed
    base.add(deny(anyone(), Action.WRITE, "archive/**"))     # by this
    return base


def seeded_compile_divergence() -> Report:
    """A stale compiled table verified against its drifted base.

    The artifact is compiled first, then the base gains a blanket deny:
    the verification pass must refute equivalence with an unexplained
    divergence (``COMPILE-DIVERGE``) and report the conditional policy
    as a residual (``COMPILE-RESIDUAL``).
    """
    from repro.compile.table import compile_policy_base
    from repro.compile.verify import verify_compiled

    base = PolicyBase()
    base.add(grant(has_role("doctor"), Action.READ, "records/**"))
    base.add(grant(anyone(), Action.READ, "notes/*",
                   condition=lambda payload: payload is None))
    artifact = compile_policy_base(base)
    base.add(deny(anyone(), Action.READ, "records/**"))      # drift
    return Report(verify_compiled(artifact, base).findings())


def seeded_xml_label_divergence() -> Report:
    """A predicate policy surviving compilation only as its skeleton."""
    from repro.compile.xmltable import (
        compile_xml_policy_base,
        verify_label_table,
    )
    from repro.datagen.documents import hospital_schema

    base = XmlPolicyBase()
    base.add(xml_grant(has_role("doctor"), "/hospital/record"))
    base.add(xml_grant(has_role("researcher"),
                       "//record[diagnosis='flu']"))         # dynamic
    table = compile_xml_policy_base(base, hospital_schema())
    return Report(verify_label_table(table, base).findings())


def seeded_grant_graph() -> AuthorizationManager:
    """A dangling import, an option cycle, an escalation chain."""
    auth = AuthorizationManager()
    auth.set_owner("patients", "dba")
    # Escalation: dba -> alice -> bob -> carol all with grant option.
    auth.grant("dba", "alice", "patients", Privilege.SELECT,
               with_grant_option=True)
    auth.grant("alice", "bob", "patients", Privilege.SELECT,
               with_grant_option=True)
    auth.grant("bob", "carol", "patients", Privilege.SELECT,
               with_grant_option=True)
    # Cycle: bob and alice keep each other's options alive.
    auth.grant("bob", "alice", "patients", Privilege.SELECT,
               with_grant_option=True)
    # Dangling: an imported edge whose grantor never held UPDATE.
    auth.import_grant("mallory", "eve", "patients", Privilege.UPDATE)
    return auth


def seeded_privacy_constraints() -> PrivacyConstraintSet:
    """A completable association plus a redundant one."""
    constraints = PrivacyConstraintSet()
    # Channel: name and diagnosis are individually public, private
    # together — the public can join them query by query.
    constraints.protect_together(
        "patients", ["name", "diagnosis"], PrivacyLevel.PRIVATE,
        name="identity-condition")
    # Redundant: ssn is already private on its own, so the ssn+insurer
    # association can never be completed.
    constraints.protect("patients", "ssn", PrivacyLevel.PRIVATE)
    constraints.protect_together(
        "patients", ["ssn", "insurer"], PrivacyLevel.PRIVATE,
        name="billing-identity")
    return constraints


def seeded_rdf_store() -> SecureRdfStore:
    """A reification leak and a partially classified container."""
    secure = SecureRdfStore()
    ex = "http://example.org/"
    statement = Triple(IRI(ex + "patient1"), IRI(ex + "diagnosis"),
                       Literal("arrhythmia"))
    secure.add(statement)
    node = reify(secure.store, statement)
    # Classify the statement SECRET but leave the quadruples PUBLIC.
    secure.classify(statement, Label(Level.SECRET),
                    protect_reifications=False)
    # Container with mixed labels: member _2 raised, the rest default.
    container = create_container(
        secure.store, "Bag",
        [Literal("entry-1"), Literal("entry-2"), Literal("entry-3")])
    for triple in secure.store.match(container, None, None):
        if triple.predicate.local_name == "_2":
            secure.classify(triple, Label(Level.CONFIDENTIAL),
                            protect_reifications=False)
    return secure


#: Lint fixture with one violation per lint rule (kept as text so the
#: real tree stays clean).
BAD_SOURCE = '''\
def collect(results=[]):
    try:
        results.append(hash("policy"))
    except:
        pass
    return results


def check_labels(labels):
    for label in labels:
        label.strip()


def open_record(store, key):
    try:
        return store[key]
    except Exception:
        return None


def label_all(documents):
    out = []
    for doc in documents:
        out.extend(select_elements("//record", doc))
    return out


def broadcast_all(documents):
    import copy
    packets = []
    for doc in documents:
        packets.append(copy.deepcopy(doc))
    return packets


async def serve_forever(queue):
    import time
    while True:
        time.sleep(0.05)
        queue.drain()


def mirror_lookup(replica_pool, key):
    return replica_pool.get(key)


def write_checkpoint(path, payload):
    with open(path, "wb") as handle:
        handle.write(payload)
'''


@dataclass(frozen=True)
class SelfCheckResult:
    expected: frozenset[str]
    fired: frozenset[str]
    report: Report

    @property
    def missing(self) -> frozenset[str]:
        return self.expected - self.fired

    @property
    def ok(self) -> bool:
        return not self.missing


#: Every rule id the seeded fixtures must trigger.
EXPECTED_RULE_IDS = frozenset({
    "XML-CONFLICT", "XML-DEAD", "XML-SHADOWED",
    "POL-CONFLICT", "POL-DEAD", "POL-SHADOW",
    "COMPILE-DIVERGE", "COMPILE-RESIDUAL", "XML-DYNPRED",
    "REL-DANGLING", "REL-CYCLE", "REL-ESCALATION",
    "INF-CHANNEL", "INF-REDUNDANT",
    "RDF-REIFY", "RDF-CONTAINER",
    "LINT-MUTDEF", "LINT-BAREEXC", "LINT-SWALLOW", "LINT-HASH",
    "LINT-CHECKRET", "LINT-XPATHLOOP", "LINT-HOTCOPY",
    "LINT-BLOCKINGAWAIT", "LINT-REPLICAREAD", "LINT-UNFSYNCED",
})


def run_self_check() -> SelfCheckResult:
    report = Report()
    report.extend(analyze_xml_policies(seeded_xml_policy_base(),
                                       hospital_schema()))
    report.extend(analyze_core_policies(seeded_core_policy_base()))
    report.extend(seeded_compile_divergence())
    report.extend(seeded_xml_label_divergence())
    report.extend(analyze_grants(seeded_grant_graph()))
    report.extend(analyze_privacy(seeded_privacy_constraints()))
    report.extend(analyze_rdf(seeded_rdf_store()))
    report.extend(lint_source(BAD_SOURCE, "selfcheck-fixture"))
    return SelfCheckResult(EXPECTED_RULE_IDS,
                           frozenset(report.rule_ids()), report)

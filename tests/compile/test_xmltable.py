"""Compiled XML label tables agree with the Author-X interpreter."""

from repro.core.credentials import anyone, has_role
from repro.datagen.documents import hospital_documents, hospital_schema
from repro.datagen.population import named_cast
from repro.xmldb.xpath import compile_xpath
from repro.xmlsec.authorx import (
    XmlPolicyBase,
    XmlPropagation,
    xml_deny,
    xml_grant,
)
from repro.compile.xmltable import (
    compile_xml_policy_base,
    verify_label_table,
    xpath_nfa,
)


def cast_subjects():
    cast = named_cast()
    return [cast.doctor, cast.nurse, cast.researcher,
            cast.administrator, cast.stranger]


def static_base():
    base = XmlPolicyBase()
    base.add(xml_grant(has_role("doctor"), "//record"))
    base.add(xml_deny(anyone(), "//record/ssn"))
    base.add(xml_grant(has_role("nurse"), "/hospital/record/vitals",
                       propagation=XmlPropagation.ONE_LEVEL))
    base.add(xml_grant(has_role("administrator"), "/hospital/billing",
                       propagation=XmlPropagation.LOCAL))
    return base


# -- target NFAs ----------------------------------------------------------


def chain_accepted(nfa, tags):
    mask = nfa.start_mask
    for tag in tags:
        mask = nfa.step(mask, tag)
    return nfa.accepts(mask)


def test_xpath_nfa_absolute_child_path():
    nfa = xpath_nfa(compile_xpath("/hospital/record/vitals"))
    assert chain_accepted(nfa, ("hospital", "record", "vitals"))
    assert not chain_accepted(nfa, ("hospital", "record"))
    assert not chain_accepted(nfa, ("clinic", "record", "vitals"))


def test_xpath_nfa_descendant_axis():
    nfa = xpath_nfa(compile_xpath("//record/ssn"))
    assert chain_accepted(nfa, ("hospital", "record", "ssn"))
    assert chain_accepted(nfa, ("h", "ward", "record", "ssn"))
    # `//` selects strict descendants of the root: a root-tag match
    # must not count.
    assert not chain_accepted(nfa, ("record", "ssn"))


def test_xpath_nfa_value_target_is_dead():
    for target in ("/hospital/record/@id", "//record/text()"):
        nfa = xpath_nfa(compile_xpath(target))
        assert not chain_accepted(nfa, ("hospital", "record"))
        assert not chain_accepted(nfa, ("hospital",))


# -- label equivalence ----------------------------------------------------


def label_keys(labels):
    return {node_id: (label.access,
                      None if label.deciding_policy is None
                      else label.deciding_policy.policy_id)
            for node_id, label in labels.items()}


def test_label_document_matches_interpreter_on_static_base():
    base = static_base()
    schema = hospital_schema()
    table = compile_xml_policy_base(base, schema)
    mismatches = 0
    for doc_id, document in hospital_documents(3, 4, seed=11).items():
        for subject in cast_subjects():
            compiled = table.label_document(subject, document)
            interpreted = base.label_document(
                subject, doc_id, document, use_cache=False)
            if label_keys(compiled) != label_keys(interpreted):
                mismatches += 1
    assert mismatches == 0


def test_one_level_and_local_propagation_compile_exactly():
    base = XmlPolicyBase()
    base.add(xml_grant(has_role("nurse"), "/hospital/record",
                       propagation=XmlPropagation.ONE_LEVEL))
    base.add(xml_grant(has_role("administrator"), "/hospital",
                       propagation=XmlPropagation.LOCAL))
    schema = hospital_schema()
    table = compile_xml_policy_base(base, schema)
    for doc_id, document in hospital_documents(2, 3, seed=3).items():
        for subject in cast_subjects():
            compiled = table.label_document(subject, document)
            interpreted = base.label_document(
                subject, doc_id, document, use_cache=False)
            assert label_keys(compiled) == label_keys(interpreted)


def test_static_base_verification_is_proved_and_clean():
    base = static_base()
    table = compile_xml_policy_base(base, hospital_schema(),
                                    probes=cast_subjects())
    verification = verify_label_table(table, base,
                                      probes=cast_subjects())
    assert verification.verdict == "proved"
    assert verification.unexplained == 0
    assert not [f for f in verification.findings()
                if f.rule_id == "COMPILE-DIVERGE"]


def test_predicate_divergence_is_explained_as_dynamic():
    base = static_base()
    base.add(xml_grant(has_role("researcher"),
                       "//record[diagnosis='flu']/diagnosis"))
    table = compile_xml_policy_base(base, hospital_schema(),
                                    probes=cast_subjects())
    assert table.dynamic_mask
    verification = verify_label_table(table, base,
                                      probes=cast_subjects())
    assert verification.verdict == "proved"
    rule_ids = {f.rule_id for f in verification.findings()}
    assert "XML-DYNPRED" in rule_ids
    assert "COMPILE-DIVERGE" not in rule_ids


def test_drifted_table_is_refuted():
    base = static_base()
    table = compile_xml_policy_base(base, hospital_schema(),
                                    probes=cast_subjects())
    base.add(xml_deny(anyone(), "//record"))
    verification = verify_label_table(table, base,
                                      probes=cast_subjects())
    assert verification.verdict == "refuted"
    assert "COMPILE-DIVERGE" in {f.rule_id
                                 for f in verification.findings()}


def test_doc_id_filter_restricts_compiled_policies():
    base = static_base()
    base.add(xml_grant(has_role("doctor"), "//billing",
                       document="ward-ledger"))
    everywhere = compile_xml_policy_base(base, hospital_schema())
    ledger = compile_xml_policy_base(base, hospital_schema(),
                                     doc_id="ward-ledger")
    assert len(ledger.policies) == len(everywhere.policies) + 1


def test_stats_and_digest():
    base = static_base()
    table = compile_xml_policy_base(base, hospital_schema(),
                                    probes=cast_subjects())
    stats = table.stats()
    assert stats.policies == 4
    assert stats.dynamic_policies == 0
    assert stats.profile_classes >= 2
    again = compile_xml_policy_base(base, hospital_schema(),
                                    probes=cast_subjects())
    assert table.compute_digest() == again.compute_digest()

"""Tests for static XML policy-base analysis over the hospital DTD."""

import re

import pytest

from repro.analysis.probes import mask_covers, masks_overlap
from repro.analysis.xmlpolicy import (
    DtdGraph,
    XmlPolicyAnalysis,
    analyze_xml_policies,
    attachment_tags,
    check_conflicts,
    check_shadowed,
)
from repro.core.credentials import anyone, has_role, is_identity
from repro.datagen.documents import hospital_schema
from repro.datagen.workload import xml_policy_workload
from repro.xmldb.xpath import compile_xpath
from repro.xmlsec.authorx import (
    Privilege,
    XmlPolicyBase,
    XmlPropagation,
    xml_deny,
    xml_grant,
)

SCHEMA = hospital_schema()


def analyze(*policies):
    return analyze_xml_policies(XmlPolicyBase(list(policies)), SCHEMA)


class TestDtdGraph:
    def test_attachment_of_descendant_axis(self):
        graph = DtdGraph(SCHEMA)
        assert attachment_tags(compile_xpath("//record/ssn"),
                               graph) == {"ssn"}
        assert attachment_tags(compile_xpath("/hospital/record"),
                               graph) == {"record"}

    def test_undeclared_element_attaches_nowhere(self):
        graph = DtdGraph(SCHEMA)
        assert attachment_tags(compile_xpath("//prescription"),
                               graph) == set()


class TestConflicts:
    def test_overlapping_grant_and_deny_is_conflict(self):
        report = analyze(
            xml_grant(has_role("doctor"), "//record/ssn"),
            xml_deny(anyone(), "//record/ssn"))
        conflicts = report.by_rule("XML-CONFLICT")
        assert len(conflicts) == 1
        # The finding names the overlapping deny and witness subjects.
        assert "policy#" in conflicts[0].message
        assert "dr-grey" in conflicts[0].message

    def test_disjoint_subjects_do_not_conflict(self):
        report = analyze(
            xml_grant(is_identity("dr-grey"), "//record/ssn"),
            xml_deny(is_identity("nurse-joy"), "//record/ssn"))
        assert report.by_rule("XML-CONFLICT") == []

    def test_different_privileges_do_not_conflict(self):
        report = analyze(
            xml_grant(has_role("doctor"), "//record/ssn",
                      privilege=Privilege.NAVIGATE),
            xml_deny(anyone(), "//record/ssn"))
        assert report.by_rule("XML-CONFLICT") == []


class TestDeadPolicies:
    def test_undeclared_target_is_dead(self):
        report = analyze(xml_grant(has_role("nurse"), "//prescription"))
        dead = report.by_rule("XML-DEAD")
        assert len(dead) == 1
        assert dead[0].severity.name == "ERROR"

    def test_valid_target_is_alive(self):
        report = analyze(xml_grant(has_role("nurse"), "//record/name"))
        assert report.by_rule("XML-DEAD") == []


class TestShadowing:
    def test_grant_fully_covered_by_deny_is_shadowed(self):
        report = analyze(
            xml_grant(has_role("nurse"), "//billing/amount"),
            xml_deny(anyone(), "//billing/amount"))
        shadowed = report.by_rule("XML-SHADOWED")
        assert len(shadowed) == 1

    def test_partial_subject_overlap_is_not_shadowed(self):
        # The deny hits only doctors; nurse requests still succeed.
        report = analyze(
            xml_grant(has_role("nurse"), "//billing/amount"),
            xml_deny(has_role("doctor"), "//billing/amount"))
        assert report.by_rule("XML-SHADOWED") == []

    def test_shallower_deny_does_not_shadow_deeper_grant(self):
        # Most-specific-wins: the deeper grant beats the ancestor deny,
        # so the pair conflicts but the grant is not dead weight.
        report = analyze(
            xml_grant(has_role("doctor"), "//record/ssn"),
            xml_deny(anyone(), "/hospital",
                     propagation=XmlPropagation.CASCADE))
        assert report.by_rule("XML-SHADOWED") == []


def all_pairs_shadowing(analysis):
    """XML-SHADOWED by visiting every live grant x deny pair: per
    shadowed grant, its location and every deny that covered part of
    it, in base order."""
    denies = [d for d in analysis.denies() if not d.dead]
    found = []
    for grant in analysis.grants():
        if grant.dead or not grant.subject_mask:
            continue
        uncovered, shadowing = dict(grant.region), []
        for deny in denies:
            if (deny.policy.privilege is not grant.policy.privilege
                    or not mask_covers(deny.subject_mask,
                                       grant.subject_mask)):
                continue
            covered = [tag for tag, depth in uncovered.items()
                       if deny.region.get(tag, -1) >= depth]
            for tag in covered:
                del uncovered[tag]
            if covered:
                shadowing.append(deny.policy.policy_id)
        if shadowing and not uncovered:
            found.append((f"policy#{grant.policy.policy_id}",
                          ", ".join(f"policy#{i}" for i in shadowing[:4])))
    return found


class TestShadowingMatchesAllPairs:
    @pytest.mark.parametrize("count, seed", [(1_000, 11), (500, 3)])
    def test_generated_base(self, count, seed):
        analysis = XmlPolicyAnalysis.build(
            xml_policy_workload(count, seed=seed), SCHEMA)
        expected = all_pairs_shadowing(analysis)
        assert len(expected) > 50
        findings = check_shadowed(analysis)
        assert [(f.location, f.message.rsplit(" by ", 1)[1])
                for f in findings] == expected


def all_pairs_conflicts(analysis):
    """XML-CONFLICT by testing every grant x deny pair: per conflicting
    grant, its location, the tag and lowest id of the deny it names,
    and how many further denies collide with it."""
    denies = [d for d in analysis.denies() if d.subject_mask]
    found = []
    for grant in analysis.grants():
        if not grant.subject_mask:
            continue
        conflicting = {}
        for tag in grant.attachments:
            for deny in denies:
                if (deny.policy.privilege is grant.policy.privilege
                        and tag in deny.attachments
                        and masks_overlap(grant.subject_mask,
                                          deny.subject_mask)):
                    conflicting.setdefault(deny.policy.policy_id, tag)
        if conflicting:
            sample = min(conflicting)
            found.append((f"policy#{grant.policy.policy_id}",
                          f"grants <{conflicting[sample]}> that "
                          f"policy#{sample} denies",
                          len(conflicting) - 1))
    return found


class TestConflictsMatchAllPairs:
    @pytest.mark.parametrize("count, seed", [(1_000, 11), (500, 3)])
    def test_generated_base(self, count, seed):
        analysis = XmlPolicyAnalysis.build(
            xml_policy_workload(count, seed=seed), SCHEMA)
        expected = all_pairs_conflicts(analysis)
        assert len(expected) > 50
        assert any(more for _, _, more in expected)

        def summary(finding):
            more = re.search(r"\(\+(\d+) more denial", finding.message)
            return (finding.location,
                    finding.message.split(" for overlapping")[0],
                    int(more.group(1)) if more else 0)

        assert [summary(f) for f in check_conflicts(analysis)] == expected


class TestCleanBase:
    def test_healthy_base_has_no_findings(self):
        report = analyze(
            xml_grant(has_role("doctor"), "/hospital/record"),
            xml_deny(has_role("nurse"), "//record/ssn"))
        assert len(report) == 0

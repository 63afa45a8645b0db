"""Credential profiles: one evaluation per distinct predicate, same masks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.credentials import (
    Credential,
    CredentialExpression,
    anyone,
    attribute_at_least,
    attribute_equals,
    has_credential,
    has_role,
    is_identity,
    nobody,
)
from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import Action, PolicyBase, grant
from repro.core.subjects import Role, Subject
from repro.datagen.documents import hospital_schema
from repro.xmlsec.authorx import XmlPolicyBase, xml_grant
from repro.compile import CredentialProfileIndex, compile_policy_base
from repro.compile.xmltable import compile_xml_policy_base


def _described_like_doctor():
    # Recipe-less, and its description collides with has_role("doctor")
    # while it answers a different question.
    return CredentialExpression(
        lambda s: any(r.name == "nurse" for r in s.roles), "role=doctor")


#: Each entry builds a fresh expression per call, so equal recipes come
#: from separate factory calls (separate closures).
ATOMS = (
    lambda: has_role("doctor"),
    lambda: has_role("nurse"),
    lambda: has_credential("license"),
    lambda: attribute_equals("physician", "department", "cardio"),
    lambda: attribute_equals("physician", "department", "onco"),
    lambda: attribute_equals("physician", "department", [1]),
    lambda: attribute_at_least("clearance", "level", 2),
    lambda: is_identity("u0"),
    anyone,
    nobody,
    _described_like_doctor,
)


def expressions():
    atoms = st.sampled_from(ATOMS).map(lambda make: make())
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: ab[0] & ab[1]),
        st.tuples(inner, inner).map(lambda ab: ab[0] | ab[1]),
        inner.map(lambda a: ~a)), max_leaves=4)


@st.composite
def policy_specs(draw, max_compounds):
    """Every atom once, fresh, plus random compounds, in random order."""
    specs = [make() for make in ATOMS]
    specs += draw(st.lists(expressions(), max_size=max_compounds))
    return draw(st.permutations(specs))


@st.composite
def subjects(draw):
    roles = draw(st.sets(st.sampled_from(["doctor", "nurse", "admin"])))
    credentials = []
    department = draw(st.sampled_from([None, "cardio", "onco", [1]]))
    if department is not None:
        credentials.append(
            Credential("physician", {"department": department}))
    if draw(st.booleans()):
        credentials.append(Credential("license", {}))
    level = draw(st.sampled_from([None, 1, 2, 3]))
    if level is not None:
        credentials.append(Credential("clearance", {"level": level}))
    name = draw(st.sampled_from(["u0", "u1"]))
    return Subject(name, [Role(r) for r in roles], credentials)


def reference_mask(policies, subject):
    return sum(1 << i for i, p in enumerate(policies)
               if p.applies_to_subject(subject))


class TestGroupedMasks:
    @given(policy_specs(max_compounds=8),
           st.lists(subjects(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_core_table_masks_equal_per_policy_reference(
            self, specs, people):
        policies = [grant(spec, Action.READ, f"r/{i}")
                    for i, spec in enumerate(specs)]
        table = compile_policy_base(policies, explore=False)
        for subject in people:
            assert table.profiles.profile(subject) == \
                reference_mask(table.policies, subject)

    @given(policy_specs(max_compounds=4),
           st.lists(subjects(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_label_table_masks_equal_per_policy_reference(
            self, specs, people):
        base = XmlPolicyBase()
        for spec in specs:
            base.add(xml_grant(spec, "//record"))
        table = compile_xml_policy_base(base, hospital_schema(),
                                        probes=people)
        for subject in people:
            assert table.profiles.profile(subject) == \
                reference_mask(table.policies, subject)

    def test_shared_description_is_not_a_shared_predicate(self):
        doctor = has_role("doctor")
        lookalike = _described_like_doctor()
        assert doctor.description == lookalike.description
        index = CredentialProfileIndex([doctor, lookalike])
        assert index.predicates == 2
        assert index.profile(Subject("n", [Role("nurse")])) == 0b10


class TestWorkCount:
    def test_one_call_per_distinct_recipe(self, monkeypatch):
        recipes = (
            [lambda r=r: has_role(r) for r in
             ("doctor", "nurse", "admin", "clerk", "auditor",
              "researcher", "intern", "pharmacist")]
            + [lambda d=d: attribute_equals("physician", "department", d)
               for d in ("cardio", "onco", "neuro", "peds", "er", "icu")]
            + [lambda t=t: has_credential(t)
               for t in ("license", "badge", "consent")])
        assert len(recipes) == 17
        policies = [grant(recipes[i % 17](), Action.READ, f"r/{i}")
                    for i in range(198)]
        table = compile_policy_base(policies, explore=False)
        calls = []
        original = CredentialExpression.evaluate

        def counting(self, subject):
            calls.append(self.description)
            return original(self, subject)

        monkeypatch.setattr(CredentialExpression, "evaluate", counting)
        subject = Subject("s", [Role("nurse")], [
            Credential("physician", {"department": "onco"})])
        table.decide(subject, Action.READ, "r/1")
        assert len(calls) == 17
        table.decide(subject, Action.READ, "r/2")
        assert len(calls) == 17  # a warm subject evaluates nothing
        assert table.stats().subject_predicates == 17


class TestRaisingPredicate:
    def test_compiled_decide_raises_like_the_interpreter(self):
        def hostile(subject):
            raise LookupError("credential store unreachable")

        policies = [
            grant(has_role("doctor"), Action.READ, "records/*"),
            grant(CredentialExpression(hostile, "hostile"), Action.READ,
                  "records/*"),
        ]
        subject = Subject("s", [Role("doctor")])
        with pytest.raises(LookupError):
            PolicyEvaluator(PolicyBase(policies)).decide(
                subject, Action.READ, "records/a")
        table = compile_policy_base(policies)
        with pytest.raises(LookupError):
            table.decide(subject, Action.READ, "records/a")
        # Nothing was memoised for the subject: it raises again.
        with pytest.raises(LookupError):
            table.decide(subject, Action.READ, "records/a")

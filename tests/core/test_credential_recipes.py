"""Credential-expression recipes: policies that survive pickling.

A durable policy store pickles every policy into its write-ahead log
records and checkpoints, but a credential expression is a closure —
unpicklable as such.  Every factory therefore records its *recipe*
(factory name + arguments) and ``__reduce__`` rebuilds the expression
from it on recovery; an expression constructed outside the factories
refuses to pickle with a typed error instead of failing deep inside a
log write.
"""

import pickle

import pytest

from repro.core.credentials import (
    CredentialExpression,
    CredentialType,
    anyone,
    attribute_at_least,
    attribute_equals,
    attribute_in,
    has_credential,
    has_role,
    issued_by,
    is_identity,
    nobody,
)
from repro.core.policy import Action, grant
from repro.core.subjects import Role, Subject

PHYSICIAN = CredentialType(
    "physician", {"department", "seniority"}, mandatory={"department"})


def doctor():
    return Subject("dr", roles={Role("doctor")},
                   credentials=[PHYSICIAN.issue(department="cardiology",
                                                seniority=7)])


def roundtrip(expression):
    return pickle.loads(pickle.dumps(expression, protocol=5))


class TestFactoryRecipes:
    @pytest.mark.parametrize("factory", [
        lambda: anyone(),
        lambda: nobody(),
        lambda: is_identity("dr"),
        lambda: has_role("doctor"),
        lambda: has_credential("physician"),
        lambda: issued_by("physician", "self"),
        lambda: attribute_equals("physician", "department", "cardiology"),
        lambda: attribute_at_least("physician", "seniority", 5),
        lambda: attribute_in("physician", "department",
                             {"cardiology", "oncology"}),
    ])
    def test_every_factory_survives_pickling(self, factory):
        original = factory()
        rebuilt = roundtrip(original)
        subject = doctor()
        assert rebuilt.evaluate(subject) == original.evaluate(subject)
        assert rebuilt.description == original.description

    def test_combinators_compose_recipes(self):
        expression = (has_role("doctor")
                      & ~attribute_equals("physician", "department",
                                          "oncology")) | nobody()
        rebuilt = roundtrip(expression)
        subject = doctor()
        assert rebuilt.evaluate(subject) and expression.evaluate(subject)

    def test_attribute_in_recipe_is_order_insensitive(self):
        one = attribute_in("physician", "department", {"a", "b", "c"})
        other = attribute_in("physician", "department", {"c", "a", "b"})
        assert one.recipe == other.recipe

    def test_raw_expression_refuses_with_typed_error(self):
        bare = CredentialExpression(lambda s: True, "ad-hoc")
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(bare, protocol=5)


class TestPolicyPickling:
    def test_policy_id_survives_the_trip(self):
        policy = grant(has_role("doctor"), Action.READ, "records/**")
        rebuilt = pickle.loads(pickle.dumps(policy, protocol=5))
        assert rebuilt.policy_id == policy.policy_id

    def test_rebuilt_policy_decides_identically(self):
        policy = grant(attribute_at_least("physician", "seniority", 5),
                       Action.READ, "records/**")
        rebuilt = pickle.loads(pickle.dumps(policy, protocol=5))
        subject = doctor()
        assert rebuilt.subject_expression.evaluate(subject)
        assert rebuilt.action == policy.action
        assert str(rebuilt.resource) == str(policy.resource)

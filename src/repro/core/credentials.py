"""Credentials: attribute bundles that qualify subjects (Author-X style).

The paper (§3.1, §3.2) repeatedly points at *credentials* as the web-scale
replacement for identity lists: "a more flexible way of qualifying subjects
is needed, for instance based on the notion of role or credential".  In the
Author-X model [5] credentials are typed attribute sets specified in XML;
policies then select subjects with *credential expressions* over those
attributes.

This module provides:

* :class:`CredentialType` — a named schema: which attributes a credential of
  this type carries, and which are mandatory;
* :class:`Credential` — an instance: type + attribute values + issuer;
* :class:`CredentialExpression` — a small, composable predicate language
  (``attr("age") >= 18 AND has_type("physician")``) evaluated against a
  subject's credential set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

from repro.core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.subjects import Subject


@dataclass(frozen=True)
class CredentialType:
    """Schema for a family of credentials.

    Parameters
    ----------
    name:
        Type name, e.g. ``"physician"``.
    attributes:
        All attribute names a credential of this type may carry.
    mandatory:
        Subset of ``attributes`` that every instance must provide.
    """

    name: str
    attributes: frozenset[str] = frozenset()
    mandatory: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        missing = self.mandatory - self.attributes
        if missing:
            raise ConfigurationError(
                f"credential type {self.name!r}: mandatory attributes "
                f"{sorted(missing)} not declared")

    def issue(self, issuer: str = "self",
              **attribute_values: object) -> "Credential":
        """Create a validated credential instance of this type."""
        unknown = set(attribute_values) - set(self.attributes)
        if unknown:
            raise ConfigurationError(
                f"credential type {self.name!r}: unknown attributes "
                f"{sorted(unknown)}")
        absent = self.mandatory - set(attribute_values)
        if absent:
            raise ConfigurationError(
                f"credential type {self.name!r}: missing mandatory "
                f"attributes {sorted(absent)}")
        return Credential(self.name, dict(attribute_values), issuer)


@dataclass(frozen=True)
class Credential:
    """An issued credential: a typed, immutable attribute bundle."""

    type_name: str
    attributes: Mapping[str, object]
    issuer: str = "self"

    def __post_init__(self) -> None:
        # Freeze the mapping so credentials are safely hashable by identity
        # of content.
        object.__setattr__(self, "attributes", dict(self.attributes))

    def __hash__(self) -> int:
        return hash((self.type_name, self.issuer,
                     tuple(sorted(self.attributes.items()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Credential):
            return NotImplemented
        return (self.type_name == other.type_name
                and self.issuer == other.issuer
                and dict(self.attributes) == dict(other.attributes))


class CredentialExpression:
    """A predicate over a subject's credentials.

    Expressions compose with ``&`` (and), ``|`` (or) and ``~`` (not), and
    are built from the factory functions below.  ``evaluate(subject)``
    returns a bool; expressions never raise on missing attributes — a
    comparison against an absent attribute is simply false.

    Expressions built from the factories below carry a *recipe* — the
    factory name plus its arguments — which makes them picklable even
    though the predicate itself is a closure: pickling ships the recipe
    and unpickling re-runs the factory.  The write-ahead log relies on
    this: :class:`~repro.wal.durable.DurablePolicyStore` pickles every
    policy into its log records and checkpoints.
    Hand-rolled expressions (a raw predicate with no recipe) still work
    everywhere in-process but refuse to pickle, with a typed error.
    """

    def __init__(self, predicate: Callable[["Subject"], bool],
                 description: str,
                 recipe: tuple | None = None) -> None:
        self._predicate = predicate
        self.description = description
        self.recipe = recipe

    def evaluate(self, subject: "Subject") -> bool:
        return bool(self._predicate(subject))

    def __call__(self, subject: "Subject") -> bool:
        return self.evaluate(subject)

    def __and__(self, other: "CredentialExpression") -> "CredentialExpression":
        recipe = None
        if self.recipe is not None and other.recipe is not None:
            recipe = ("and", self.recipe, other.recipe)
        return CredentialExpression(
            lambda s: self.evaluate(s) and other.evaluate(s),
            f"({self.description} AND {other.description})", recipe)

    def __or__(self, other: "CredentialExpression") -> "CredentialExpression":
        recipe = None
        if self.recipe is not None and other.recipe is not None:
            recipe = ("or", self.recipe, other.recipe)
        return CredentialExpression(
            lambda s: self.evaluate(s) or other.evaluate(s),
            f"({self.description} OR {other.description})", recipe)

    def __invert__(self) -> "CredentialExpression":
        recipe = None
        if self.recipe is not None:
            recipe = ("not", self.recipe)
        return CredentialExpression(
            lambda s: not self.evaluate(s),
            f"(NOT {self.description})", recipe)

    def __reduce__(self):
        if self.recipe is None:
            import pickle
            raise pickle.PicklingError(
                f"CredentialExpression({self.description}) has no recipe: "
                "only expressions built from the repro.core.credentials "
                "factories (anyone, has_role, attribute_at_least, ...) and "
                "their &/|/~ combinations can be logged")
        return (_from_recipe, (self.recipe,))

    def __repr__(self) -> str:
        return f"CredentialExpression({self.description})"


def _from_recipe(recipe: tuple) -> CredentialExpression:
    """Rebuild a factory-made expression from its recipe (unpickle path)."""
    head = recipe[0]
    if head == "and":
        return _from_recipe(recipe[1]) & _from_recipe(recipe[2])
    if head == "or":
        return _from_recipe(recipe[1]) | _from_recipe(recipe[2])
    if head == "not":
        return ~_from_recipe(recipe[1])
    factory = _RECIPE_FACTORIES.get(head)
    if factory is None:
        raise ConfigurationError(
            f"unknown credential-expression recipe {head!r}")
    return factory(*recipe[1:])


def anyone() -> CredentialExpression:
    """Matches every subject (the open-world 'public' qualifier)."""
    return CredentialExpression(lambda s: True, "anyone", ("anyone",))


def nobody() -> CredentialExpression:
    """Matches no subject; useful as an explicit lock."""
    return CredentialExpression(lambda s: False, "nobody", ("nobody",))


def is_identity(name: str) -> CredentialExpression:
    """Matches the single subject whose identity is *name*."""
    return CredentialExpression(
        lambda s: s.identity.name == name, f"identity={name}",
        ("is_identity", name))


def has_role(role_name: str) -> CredentialExpression:
    """Matches subjects holding a role named *role_name* (no hierarchy)."""
    return CredentialExpression(
        lambda s: any(r.name == role_name for r in s.roles),
        f"role={role_name}", ("has_role", role_name))


def has_credential(type_name: str) -> CredentialExpression:
    """Matches subjects holding any credential of the given type."""
    return CredentialExpression(
        lambda s: s.credential_of_type(type_name) is not None,
        f"credential={type_name}", ("has_credential", type_name))


def issued_by(type_name: str, issuer: str) -> CredentialExpression:
    """Matches subjects holding a *type_name* credential from *issuer*."""
    return CredentialExpression(
        lambda s: any(c.type_name == type_name and c.issuer == issuer
                      for c in s.credentials),
        f"credential={type_name} issuer={issuer}",
        ("issued_by", type_name, issuer))


def attribute_equals(type_name: str, attribute: str,
                     value: object) -> CredentialExpression:
    """Matches subjects whose credential attribute equals *value*."""
    return CredentialExpression(
        lambda s: s.attribute(type_name, attribute) == value,
        f"{type_name}.{attribute}=={value!r}",
        ("attribute_equals", type_name, attribute, value))


def attribute_at_least(type_name: str, attribute: str,
                       threshold: float) -> CredentialExpression:
    """Matches subjects whose numeric attribute is >= *threshold*."""

    def check(subject: "Subject") -> bool:
        value = subject.attribute(type_name, attribute)
        return isinstance(value, (int, float)) and value >= threshold

    return CredentialExpression(
        check, f"{type_name}.{attribute}>={threshold}",
        ("attribute_at_least", type_name, attribute, threshold))


def attribute_in(type_name: str, attribute: str,
                 values: Iterable[object]) -> CredentialExpression:
    """Matches subjects whose attribute is one of *values*."""
    allowed = frozenset(values)
    return CredentialExpression(
        lambda s: s.attribute(type_name, attribute) in allowed,
        f"{type_name}.{attribute} in {sorted(map(repr, allowed))}",
        ("attribute_in", type_name, attribute, tuple(sorted(
            allowed, key=repr))))


#: Recipe head → factory; combinators ("and"/"or"/"not") are handled
#: structurally in :func:`_from_recipe`.
_RECIPE_FACTORIES: dict[str, Callable[..., CredentialExpression]] = {
    "anyone": anyone,
    "nobody": nobody,
    "is_identity": is_identity,
    "has_role": has_role,
    "has_credential": has_credential,
    "issued_by": issued_by,
    "attribute_equals": attribute_equals,
    "attribute_at_least": attribute_at_least,
    "attribute_in": attribute_in,
}

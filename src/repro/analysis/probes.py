"""Probe universes: deciding overlap of opaque credential expressions.

Credential expressions (:mod:`repro.core.credentials`) are arbitrary
predicates, so exact subsumption between two subject specifications is
undecidable in general.  The analyzer decides overlap *relative to a
finite probe universe* of subjects — the standard finite-model trick:
two specifications overlap when some probe satisfies both, and Q covers
P when every probe satisfying P also satisfies Q.  The default universe
mixes the named cast with a seeded synthetic population so the common
qualifiers (roles, departments, credential types) are all represented.

Each policy's probe set is packed into a bitmask once, making the
pairwise overlap tests during conflict/shadow detection O(1) bitwise
operations, and benchmark A4 counts those tests per policy as the base
grows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.credentials import CredentialExpression
from repro.core.subjects import Subject, SubjectDirectory
from repro.datagen.population import generate_population, named_cast

#: Size of the synthetic slice of the default probe universe.
DEFAULT_POPULATION = 40
_DEFAULT_SEED = 7


@lru_cache(maxsize=1)
def _default_probes() -> tuple[Subject, ...]:
    cast = named_cast()
    population = generate_population(DEFAULT_POPULATION, seed=_DEFAULT_SEED)
    return (cast.doctor, cast.nurse, cast.researcher,
            cast.administrator, cast.stranger,
            *population.subjects())


def default_probe_subjects() -> tuple[Subject, ...]:
    """The analyzer's default finite subject universe."""
    return _default_probes()


def as_probe_list(subjects: object) -> list[Subject]:
    """Coerce fixture globals (directory, cast, iterable) to subjects."""
    if subjects is None:
        return list(default_probe_subjects())
    if isinstance(subjects, SubjectDirectory):
        return list(subjects.subjects())
    if isinstance(subjects, Subject):
        return [subjects]
    collected: list[Subject] = []
    if isinstance(subjects, Iterable):
        for entry in subjects:
            if isinstance(entry, Subject):
                collected.append(entry)
    return collected or list(default_probe_subjects())


def probe_mask(expression: CredentialExpression,
               probes: Sequence[Subject]) -> int:
    """Bit i set iff probe i satisfies *expression*.

    A probe that makes the expression raise is counted as non-matching —
    the analysis must never crash on a hostile predicate.
    """
    mask = 0
    for index, subject in enumerate(probes):
        try:
            matched = expression.evaluate(subject)
        except Exception as _exc:  # noqa: BLE001 - hostile predicates
            matched = False  # stay silent; the swallow is the contract
        if matched:
            mask |= 1 << index
    return mask


def masks_overlap(mask_a: int, mask_b: int) -> bool:
    """Some probe satisfies both expressions."""
    return bool(mask_a & mask_b)


def mask_covers(covering: int, covered: int) -> bool:
    """Every probe satisfying *covered* also satisfies *covering*."""
    return covered & ~covering == 0


def describe_overlap(mask: int, probes: Sequence[Subject],
                     limit: int = 3) -> str:
    """Names of (up to *limit*) probes witnessing an overlap."""
    names = [probes[i].identity.name for i in range(len(probes))
             if mask & (1 << i)]
    shown = ", ".join(names[:limit])
    if len(names) > limit:
        shown += f", +{len(names) - limit} more"
    return shown

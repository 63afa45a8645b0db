"""Credential-profile classes: subjects collapsed to qualification masks.

The second compiler axis.  A policy decision depends on the subject only
through the vector of ``applies_to_subject`` answers over the policy
base — two subjects with the same vector are indistinguishable to every
policy.  :class:`CredentialProfileIndex` packs that vector into a
bitmask over the id-sorted policy tuple (bit *i* ⇔ policy *i* qualifies
the subject) and memoizes it per subject: credential expressions are
evaluated once per distinct predicate per subject per compiled
artifact, instead of once per policy per request.

*Distinct predicate.*  A policy base names few predicates many times
(every ``has_role("physician")`` policy asks the same question), so the
index groups the subject expressions when it is built and a profile
miss evaluates each group once, OR-ing in the bits of all its policies.
The group key is the expression's ``recipe`` — the factory name plus
its arguments, from which unpickling rebuilds the very same predicate —
when it has a hashable one, and the expression object itself otherwise
(hand-rolled predicates, or a recipe holding a list).  It is never the
``description``: that is display text, and two hand-rolled predicates
may share one while answering differently.

Subjects hash by identity and the
:class:`~repro.core.subjects.SubjectDirectory` replaces (never mutates)
them on credential change, so a subject is a sound memo key for the
artifact's lifetime; the memo is unbounded because the subject
population is bounded by construction.  Unlike the analyzer's
``probe_mask`` (:mod:`repro.analysis.probes`, a layer above this
package, which never imports it), profile computation does
*not* swallow exceptions — the interpreter would raise on the same
hostile predicate, and the compiled engine must agree with the
interpreter bit for bit, failures included.  Groups are evaluated in
the order of their first policy, so a raising predicate raises exactly
where a per-policy loop would.

:meth:`profile_classes` quotients a finite probe universe by profile
mask — the credential-profile classes of the compiled decision table,
each carrying one witness subject for the verification pass, which
passes the universe in: the table itself holds no probes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.core.credentials import CredentialExpression
from repro.core.subjects import Subject


class ProfileClass(NamedTuple):
    """One equivalence class of subjects under policy qualification."""

    mask: int
    witness: Subject
    size: int


class CredentialProfileIndex:
    """Subject → qualification bitmask over id-sorted subject expressions."""

    def __init__(self,
                 expressions: Sequence[CredentialExpression]) -> None:
        groups: dict[object, list] = {}
        for index, expression in enumerate(expressions):
            try:
                group = groups.setdefault(expression.recipe or expression,
                                          [expression, 0])
            except TypeError:  # an unhashable recipe: key by identity
                group = groups.setdefault(expression, [expression, 0])
            group[1] |= 1 << index
        self._groups = tuple(tuple(group) for group in groups.values())
        self._masks: dict[Subject, int] = {}

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def predicates(self) -> int:
        """Distinct predicates one profile miss evaluates."""
        return len(self._groups)

    def profile(self, subject: Subject) -> int:
        """Bit *i* set iff ``expressions[i].evaluate(subject)``."""
        mask = self._masks.get(subject)
        if mask is None:
            mask = 0
            for expression, bits in self._groups:
                if expression.evaluate(subject):
                    mask |= bits
            self._masks[subject] = mask
        return mask

    def profile_classes(self, probes: Sequence[Subject]
                        ) -> list[ProfileClass]:
        """The distinct profiles of a probe universe, with witnesses."""
        grouped: dict[int, list[Subject]] = {}
        for subject in probes:
            grouped.setdefault(self.profile(subject), []).append(subject)
        return [ProfileClass(mask, members[0], len(members))
                for mask, members in sorted(grouped.items())]

"""Merged path-class DFA: every policy's resource reach in one automaton.

The front-end of the policy compiler.  Each policy's
``applies_to_resource`` predicate — glob pattern matching *plus*
propagation through ancestors (:class:`~repro.core.policy.Propagation`)
— is encoded as a small position NFA over path segments
(:class:`PatternNfa`); the :class:`MergedPathDfa` runs every NFA in
lockstep via lazy subset construction, so one walk over a path's
segments yields the exact applicability bitmask of the whole policy
base.  Two properties make the result usable as a compiled artifact:

* **Runtime exactness.**  Transitions are memoized per (state, segment)
  but computed from the NFAs with ``fnmatchcase`` on demand, so
  :meth:`classify` agrees with the interpreter on *every* path — also
  paths whose segments were never seen at compile time.

* **Static enumerability.**  :meth:`explore` eagerly closes the
  automaton over a *witness alphabet*: every literal segment appearing
  in any pattern, synthesized witnesses for glob segments, and one
  fresh ``OTHER_SEGMENT`` standing for "any segment no pattern names".
  Each explored state records a concrete witness path, which is what
  lets the verification pass (:mod:`repro.compile.verify`) replay every
  compiled path class through the interpreter.  The witness alphabet is
  a deliberate finite cut of the infinite segment space: segment
  behaviours it cannot express (e.g. one segment satisfying two
  disjoint globs at once) are simply extra path classes discovered —
  and still answered exactly — at runtime.

Propagation is folded into the NFA, not special-cased at lookup time:
``LOCAL`` keeps the pattern as-is, ``ONE_LEVEL`` appends a ``*``
segment (the pattern or its direct child may match), ``CASCADE``
appends ``**`` (the pattern or any descendant).  Both the original and
the extended accept positions are accepting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.core.objects import ResourcePath, is_glob
from repro.core.policy import Policy, Propagation

#: Stand-in for "a segment no pattern mentions" in the witness alphabet.
OTHER_SEGMENT = "~other~"

_CHAR_CLASS = re.compile(r"\[(!?)([^\]]+)\]")


def glob_witnesses(segment: str) -> frozenset[str]:
    """Concrete segments matching one glob segment (best effort).

    Substitutes neutral characters for the glob operators and keeps only
    candidates that verifiably match.  ``*``/``**`` yield nothing — the
    generic :data:`OTHER_SEGMENT` already covers "anything".
    """
    if segment in ("*", "**"):
        return frozenset()
    candidates = set()
    stripped = _CHAR_CLASS.sub(
        lambda m: "~" if m.group(1) else m.group(2)[0], segment)
    stripped = stripped.replace("?", "~")
    candidates.add(stripped.replace("*", ""))
    candidates.add(stripped.replace("*", "~"))
    return frozenset(
        c for c in candidates
        if c and "/" not in c and not is_glob(c)
        and fnmatchcase(c, segment))


class PatternNfa:
    """Position NFA over path segments; masks are position bitsets.

    Position *i* means "the first *i* segments of the (extended) pattern
    are consumed".  A ``**`` segment self-loops (absorbing a segment)
    and epsilon-advances (absorbing zero), which :meth:`close` applies.
    """

    __slots__ = ("segments", "accept_mask", "start_mask", "_star_bits")

    def __init__(self, segments: tuple[str, ...],
                 accept_positions: frozenset[int]) -> None:
        self.segments = segments
        self.accept_mask = 0
        for position in accept_positions:
            self.accept_mask |= 1 << position
        self._star_bits = tuple(
            1 << i for i, seg in enumerate(segments) if seg == "**")
        self.start_mask = self.close(1)

    def close(self, mask: int) -> int:
        """Epsilon closure: a reached ``**`` may also be skipped.

        Iterates to fixpoint so adjacent ``**`` segments chain.
        """
        changed = True
        while changed:
            changed = False
            for bit in self._star_bits:
                if mask & bit and not mask & (bit << 1):
                    mask |= bit << 1
                    changed = True
        return mask

    def step(self, mask: int, segment: str) -> int:
        """Consume one path segment from a closed position mask."""
        if not mask:
            return 0
        out = 0
        for index, pattern_segment in enumerate(self.segments):
            bit = 1 << index
            if not mask & bit:
                continue
            if pattern_segment == "**":
                out |= bit
            elif fnmatchcase(segment, pattern_segment):
                out |= bit << 1
        return self.close(out)

    def accepts(self, mask: int) -> bool:
        return bool(mask & self.accept_mask)


def nfa_for_policy(policy: Policy) -> PatternNfa:
    """The NFA deciding ``policy.applies_to_resource`` exactly."""
    base = policy.resource.segments
    if policy.propagation is Propagation.ONE_LEVEL:
        extended = base + ("*",)
    elif policy.propagation is Propagation.CASCADE:
        extended = base + ("**",)
    else:
        extended = base
    return PatternNfa(extended,
                      frozenset((len(base), len(extended))))


@dataclass
class DfaState:
    """One path class: all paths sharing this per-policy position tuple."""

    state_id: int
    key: tuple[int, ...]
    applies_mask: int
    witness: tuple[str, ...] | None = None
    transitions: dict[str, int] = field(default_factory=dict)


class MergedPathDfa:
    """Lazy product DFA of every policy's :class:`PatternNfa`.

    ``classify(path)`` walks the path's segments once and lands on a
    :class:`DfaState` whose ``applies_mask`` has bit *i* set exactly
    when ``policies[i].applies_to_resource(path)`` — the property test
    suite asserts this bit-for-bit against the interpreter.
    """

    def __init__(self, policies: Sequence[Policy],
                 max_states: int = 50_000) -> None:
        self.policies = tuple(policies)
        self.max_states = max_states
        self._nfas = tuple(nfa_for_policy(p) for p in self.policies)
        self._states: list[DfaState] = []
        self._by_key: dict[tuple[int, ...], int] = {}
        self._glob_literal_matches: dict[str, frozenset[str]] = {}
        self._all_literals = frozenset(
            seg for nfa in self._nfas for seg in nfa.segments
            if not is_glob(seg))
        self.eager_states = 0
        self.start = self._intern(
            tuple(nfa.start_mask for nfa in self._nfas), witness=())

    # -- construction ---------------------------------------------------

    def _intern(self, key: tuple[int, ...],
                witness: tuple[str, ...] | None = None) -> int:
        state_id = self._by_key.get(key)
        if state_id is not None:
            state = self._states[state_id]
            if state.witness is None and witness is not None:
                state.witness = witness
            return state_id
        if len(self._states) >= self.max_states:
            raise ConfigurationError(
                f"path DFA exceeded {self.max_states} states; the policy "
                f"base's patterns are pathologically diverse")
        applies = 0
        for index, (nfa, mask) in enumerate(zip(self._nfas, key)):
            if mask and nfa.accepts(mask):
                applies |= 1 << index
        state = DfaState(len(self._states), key, applies, witness)
        self._states.append(state)
        self._by_key[key] = state.state_id
        return state.state_id

    def step(self, state_id: int, segment: str) -> int:
        """Memoized transition; exact for arbitrary segments."""
        state = self._states[state_id]
        nxt = state.transitions.get(segment)
        if nxt is None:
            key = tuple(nfa.step(mask, segment)
                        for nfa, mask in zip(self._nfas, state.key))
            witness = (None if state.witness is None
                       else state.witness + (segment,))
            nxt = self._intern(key, witness)
            state.transitions[segment] = nxt
        return nxt

    # -- lookup ---------------------------------------------------------

    def classify(self, path: ResourcePath | str) -> int:
        path = ResourcePath(path)
        state_id = self.start
        for segment in path.segments:
            state_id = self.step(state_id, segment)
        return state_id

    def state(self, state_id: int) -> DfaState:
        return self._states[state_id]

    def applies_mask(self, state_id: int) -> int:
        return self._states[state_id].applies_mask

    def witness_path(self, state_id: int) -> ResourcePath | None:
        witness = self._states[state_id].witness
        return None if witness is None else ResourcePath(witness)

    @property
    def state_count(self) -> int:
        return len(self._states)

    def states(self) -> Iterator[DfaState]:
        return iter(self._states)

    def transition_count(self) -> int:
        return sum(len(s.transitions) for s in self._states)

    # -- eager closure over the witness alphabet ------------------------

    def _matching_literals(self, glob: str) -> frozenset[str]:
        cached = self._glob_literal_matches.get(glob)
        if cached is None:
            cached = frozenset(lit for lit in self._all_literals
                               if fnmatchcase(lit, glob))
            self._glob_literal_matches[glob] = cached
        return cached

    def state_alphabet(self, state_id: int) -> frozenset[str]:
        """Segments that can distinguish behaviour from this state.

        Active pattern positions contribute their literals directly; an
        active glob contributes its synthesized witnesses plus every
        pattern literal it matches (the "literal under glob" classes).
        :data:`OTHER_SEGMENT` represents every remaining segment.
        """
        segments: set[str] = {OTHER_SEGMENT}
        state = self._states[state_id]
        for nfa, mask in zip(self._nfas, state.key):
            if not mask:
                continue
            for index, seg in enumerate(nfa.segments):
                if not mask & (1 << index):
                    continue
                if seg in ("*", "**"):
                    continue
                if is_glob(seg):
                    segments |= glob_witnesses(seg)
                    segments |= self._matching_literals(seg)
                else:
                    segments.add(seg)
        return frozenset(segments)

    def explore(self) -> int:
        """BFS-close the DFA over per-state witness alphabets.

        Assigns every reachable-by-witness state a concrete witness
        path; returns (and records) the eager state count.  The sink
        state (no policy can ever apply again) only self-loops, so the
        walk terminates.
        """
        pending = [self.start]
        seen = {self.start}
        while pending:
            state_id = pending.pop(0)
            for segment in sorted(self.state_alphabet(state_id)):
                nxt = self.step(state_id, segment)
                if nxt not in seen:
                    seen.add(nxt)
                    pending.append(nxt)
        self.eager_states = len(seen)
        return self.eager_states

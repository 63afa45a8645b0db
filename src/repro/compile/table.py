"""The compiled artifact: a flat decision table over static cells.

A :class:`CompiledPolicy` snapshots a policy base at one generation and
answers requests from a table keyed by ``(path class, action,
credential profile)``:

* the *path class* comes from the merged DFA
  (:mod:`repro.compile.pathdfa`) — one dict hop per previously seen
  path string, one DFA walk for a new one;
* the *credential profile* comes from
  :class:`~repro.compile.profiles.CredentialProfileIndex` — one dict
  hop per previously seen subject;
* the *cell* holds the fully resolved
  :class:`~repro.core.evaluator.Decision`, computed on first touch by
  the exact conflict-resolution code of the interpreter
  (:meth:`~repro.core.evaluator.PolicyEvaluator.resolve`) over the
  id-ordered applicable list the cell's masks select.  Warm lookups are
  three dict hops — O(1) in the policy count.

Content-dependent policies keep interpreter semantics: a request with a
payload is resolved per request (its applicable list filtered through
``applies_to_content``) and never cached; payload-free cells evaluate
``condition(None)`` once at fill time, which equals the interpreter's
answer as long as conditions are pure functions of the payload.

The artifact carries the source generation it was compiled from
(``source_generation``, a plain attribute), and a digest over
the policy descriptors, resolution settings and the eagerly explored
automaton shape — two compilations of identical bases at the same
generation produce identical digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.probes import as_probe_list
from repro.core.evaluator import (
    ConflictResolution,
    Decision,
    DefaultDecision,
    PolicyEvaluator,
)
from repro.core.objects import ResourcePath
from repro.core.policy import Action, Policy, PolicyBase
from repro.core.subjects import Subject
from repro.crypto.hashing import sha256_hex

from repro.compile.pathdfa import MergedPathDfa
from repro.compile.profiles import CredentialProfileIndex, ProfileClass


@dataclass(frozen=True)
class CompileStats:
    """Size and fill counters of one compiled artifact."""

    policies: int
    path_classes: int
    dfa_states: int
    transitions: int
    profiles_seen: int
    cells_filled: int
    residual_policies: int
    source_generation: int


class CompiledPolicy:
    """Immutable decision table compiled from one policy-base snapshot.

    "Immutable" applies to the decision semantics: cells and transitions
    are memoized on demand, but every memoized value is a pure function
    of the snapshotted policy tuple, so concurrent fills are benign and
    a cell can never change once observed.
    """

    def __init__(self, policies: Sequence[Policy], dfa: MergedPathDfa,
                 profiles: CredentialProfileIndex,
                 resolution: ConflictResolution,
                 default: DefaultDecision,
                 source_generation: int,
                 probes: Sequence[Subject]) -> None:
        self.source_generation = source_generation
        self.policies = tuple(policies)
        self.dfa = dfa
        self.profiles = profiles
        self.resolution = resolution
        self.default = default
        self.probes = tuple(probes)
        # resolve() never touches the base, only resolution/default;
        # the empty base keeps the resolver free of mutable state.
        self._resolver = PolicyEvaluator(
            PolicyBase(), resolution=resolution, default=default)
        self._by_action: dict[Action, tuple[int, ...]] = {}
        for index, policy in enumerate(self.policies):
            self._by_action.setdefault(policy.action, ())
            self._by_action[policy.action] += (index,)
        self.conditional_mask = 0
        for index, policy in enumerate(self.policies):
            if policy.condition is not None:
                self.conditional_mask |= 1 << index
        self._appliers: dict[int, dict[Action, tuple[int, ...]]] = {}
        self._cells: dict[tuple[int, Action, int], Decision] = {}
        self._path_states: dict[str, int] = {}
        self.digest = self._compute_digest()

    # -- identity -------------------------------------------------------

    def _compute_digest(self) -> str:
        lines = [f"resolution={self.resolution.value}",
                 f"default={self.default.value}",
                 f"generation={self.source_generation}"]
        for policy in self.policies:
            lines.append(
                f"policy|{policy.policy_id}|{policy.sign.value}"
                f"|{policy.action.value}|{policy.resource}"
                f"|{policy.propagation.value}|{policy.priority}"
                f"|{int(policy.condition is not None)}"
                f"|{policy.subject_expression.description}")
        for state in self.dfa.states():
            edges = ",".join(f"{seg}>{dst}" for seg, dst
                             in sorted(state.transitions.items()))
            lines.append(f"state|{state.state_id}"
                         f"|{state.applies_mask}|{edges}")
        return sha256_hex("\n".join(lines))

    # -- lookup ---------------------------------------------------------

    def classify(self, path: ResourcePath | str) -> int:
        """Path → path-class id, memoized per path string."""
        text = str(path) if isinstance(path, ResourcePath) else path
        state_id = self._path_states.get(text)
        if state_id is None:
            state_id = self.dfa.classify(text)
            self._path_states[text] = state_id
        return state_id

    def appliers(self, state_id: int) -> dict[Action, tuple[int, ...]]:
        """Per-action policy indices applying at one path class."""
        cached = self._appliers.get(state_id)
        if cached is None:
            applies = self.dfa.applies_mask(state_id)
            cached = {
                action: tuple(i for i in indices if applies >> i & 1)
                for action, indices in self._by_action.items()}
            self._appliers[state_id] = cached
        return cached

    def decide_cell(self, state_id: int, action: Action,
                    profile_mask: int,
                    payload: object = None) -> Decision:
        """Resolve one table cell; payload-free cells are memoized."""
        if payload is None:
            key = (state_id, action, profile_mask)
            decision = self._cells.get(key)
            if decision is not None:
                return decision
            applicable = [
                self.policies[i]
                for i in self.appliers(state_id).get(action, ())
                if profile_mask >> i & 1
                and self.policies[i].applies_to_content(None)]
            decision = self._resolver.resolve(applicable)
            self._cells[key] = decision
            return decision
        applicable = [
            self.policies[i]
            for i in self.appliers(state_id).get(action, ())
            if profile_mask >> i & 1
            and self.policies[i].applies_to_content(payload)]
        return self._resolver.resolve(applicable)

    def decide(self, subject: Subject, action: Action,
               path: ResourcePath | str,
               payload: object = None) -> Decision:
        """Full request → decision, byte-identical to the interpreter."""
        return self.decide_cell(self.classify(path), action,
                                self.profiles.profile(subject), payload)

    # -- reporting ------------------------------------------------------

    def profile_classes(self,
                        probes: Sequence[Subject] | None = None
                        ) -> list[ProfileClass]:
        return self.profiles.profile_classes(
            self.probes if probes is None else probes)

    def stats(self) -> CompileStats:
        return CompileStats(
            policies=len(self.policies),
            path_classes=self.dfa.eager_states,
            dfa_states=self.dfa.state_count,
            transitions=self.dfa.transition_count(),
            profiles_seen=len(self.profiles),
            cells_filled=len(self._cells),
            residual_policies=self.conditional_mask.bit_count(),
            source_generation=self.source_generation)


def compile_policy_base(base: PolicyBase | Iterable[Policy],
                        resolution: ConflictResolution =
                        ConflictResolution.DENY_OVERRIDES,
                        default: DefaultDecision = DefaultDecision.CLOSED,
                        probes: Sequence[Subject] | None = None,
                        explore: bool = True,
                        max_states: int = 50_000) -> CompiledPolicy:
    """Compile a policy base (or bare policy iterable) to a table.

    ``explore=True`` (the default) eagerly closes the path DFA over the
    witness alphabet so every static path class carries a witness for
    verification; the digest is computed over the explored shape, so it
    is deterministic for a given base state.
    """
    policies = sorted(base, key=lambda p: p.policy_id)
    dfa = MergedPathDfa(policies, max_states=max_states)
    if explore:
        dfa.explore()
    return CompiledPolicy(
        policies, dfa, CredentialProfileIndex(policies),
        resolution, default,
        source_generation=getattr(base, "generation", 0),
        probes=as_probe_list(probes))

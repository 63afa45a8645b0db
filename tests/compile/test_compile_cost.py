"""A compile's work follows its automaton, and the automaton is pinned.

A path-DFA state holds only its live policies, and a transition steps
only the NFAs that cannot be looked up by a literal segment.  None of
that may change the automaton: the golden shapes below (per shard:
digest prefix, state count, transition count) were captured from the
compiler whose states held one mask per policy and stepped every NFA
on every transition.
"""

import dataclasses
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import tally
from repro.compile.pathdfa import MergedPathDfa, PatternNfa
from repro.core.credentials import anyone
from repro.core.policy import Action, Propagation, grant
from repro.gateway.engine import EpochalShardRouter

from tests.scale.workloads import literal_policies, random_policies


def numbered(policies):
    """Ids 1..n, so digests do not depend on the process-wide counter."""
    return [dataclasses.replace(policy, policy_id=number)
            for number, policy in enumerate(policies, 1)]


def shard_shapes(policies):
    router = EpochalShardRouter.from_policies(numbered(policies),
                                              shard_count=4)
    return [(shard.table.digest[:12], shard.table.dfa.state_count,
             shard.table.dfa.transition_count())
            for shard in router.publication]


GOLDEN = {
    "literal": [("497329adf4c4", 36, 70), ("6a2452392df8", 115, 228),
                ("6343e9eb19d1", 82, 162), ("eeeda718b19f", 76, 150)],
    "random": [("4e7775d1dda4", 101, 316), ("0fef4c9dace7", 275, 860),
               ("372cabfdc246", 341, 1063), ("4e7775d1dda4", 101, 316)],
}


def golden_base(name):
    if name == "literal":
        return literal_policies(random.Random(44), 400)
    return random_policies(random.Random(44), 160)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tables_equal_the_dense_key_compiler(name):
    assert shard_shapes(golden_base(name)) == GOLDEN[name]


@pytest.mark.parametrize("count", [400, 1600])
def test_nfa_steps_per_transition_stay_flat(count):
    """The dense-key compiler stepped every NFA on every transition:
    147 steps per transition at 528 policies, 486 at 1,728."""
    with tally(PatternNfa, "step") as steps:
        router = EpochalShardRouter.from_policies(
            literal_policies(random.Random(7), count), shard_count=4)
    transitions = sum(shard.table.dfa.transition_count()
                      for shard in router.publication)
    assert steps.count <= 8 * transitions


# -- the literal fast path ------------------------------------------------

#: Characters that mean something to fnmatch only inside a glob, plus
#: non-ASCII ones.
PLAIN = "ab]!-.\\~é中"
SEGMENTS = st.text(PLAIN, max_size=3)
PATTERN_SEGMENTS = st.one_of(SEGMENTS, st.text(PLAIN + "*?[", max_size=4),
                             st.sampled_from(["*", "**", "[!a]", "[a-é]"]))


def reference_step(nfa, mask, segment):
    """``PatternNfa.step`` with ``fnmatchcase`` for every segment."""
    out = 0
    for index, pattern in enumerate(nfa.segments):
        bit = 1 << index
        if mask & bit:
            if pattern == "**":
                out |= bit
            elif fnmatchcase(segment, pattern):
                out |= bit << 1
    return nfa.close(out)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_equals_an_fnmatch_only_reference(data):
    pattern = tuple(data.draw(st.lists(PATTERN_SEGMENTS, min_size=1,
                                       max_size=4)))
    nfa = PatternNfa(pattern, frozenset((len(pattern),)))
    names = st.one_of(SEGMENTS, st.sampled_from(pattern))
    mask = nfa.start_mask
    for segment in data.draw(st.lists(names, max_size=5)):
        expected = reference_step(nfa, mask, segment)
        mask = nfa.step(mask, segment)
        assert mask == expected, (pattern, segment)


LITERALS = ["a", "b", "r1", "r2", "records"]
LITERAL_HEAVY = st.lists(
    st.tuples(st.lists(st.sampled_from(LITERALS * 4 + ["*", "**", "r*"]),
                       min_size=1, max_size=4),
              st.sampled_from(list(Propagation))),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(LITERAL_HEAVY, st.lists(st.lists(st.sampled_from(LITERALS + ["x"]),
                                        min_size=1, max_size=5),
                               max_size=12))
def test_classify_equals_the_interpreter_on_literal_heavy_bases(
        patterns, paths):
    policies = [grant(anyone(), Action.READ, "/".join(segments),
                      propagation=propagation)
                for segments, propagation in patterns]
    dfa = MergedPathDfa(policies)
    dfa.explore()
    keys = [state.key for state in dfa.states()]
    assert all(list(key) == sorted(key) for key in keys)
    assert len({frozenset(key) for key in keys}) == len(keys)
    for segments in paths:
        path = "/".join(segments)
        mask = dfa.applies_mask(dfa.classify(path))
        for index, policy in enumerate(policies):
            assert bool(mask >> index & 1) == \
                policy.applies_to_resource(path), (policy, path)

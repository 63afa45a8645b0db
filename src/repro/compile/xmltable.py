"""Compiled Author-X label tables: O(1) node labelling per path class.

The XML back-end of the policy compiler.  Where
:meth:`~repro.xmlsec.authorx.XmlPolicyBase.label_document` re-evaluates
every policy target per request, a :class:`CompiledLabelTable` reduces
each policy's XPath target to a :class:`~repro.compile.pathdfa.
PatternNfa` over *tag chains* and runs one product automaton per
credential-profile class.  A product state carries everything the
Author-X tier resolution (most-specific-wins, then deny-over-grant —
:meth:`~repro.xmlsec.authorx.XmlPolicyBase._label_from_marks`) needs:

* ``attached`` — the policies whose target selects the current element
  (the depth-*d* tier: if non-empty, it alone decides the label);
* ``one_level``/``cascades`` — policies attached at the *parent* with
  ONE_LEVEL / CASCADE propagation (the depth ``d-1`` tier);
* ``fallback`` — the cascade tier of the deepest ancestor strictly
  above the parent (what decides when both nearer tiers are empty).

The resolved :class:`~repro.xmlsec.authorx.NodeLabel` is computed once
per product state, so labelling a document is one memoized transition
per element — independent of the policy count.

Static enumerability mirrors :mod:`repro.compile.pathdfa`: per profile
class the automaton is eagerly explored over the DTD element graph
(:class:`~repro.analysis.xmlpolicy.DtdGraph`), assigning each state a
witness *tag chain* that the verification pass materializes as a spine
document and replays through the interpreter.  Transitions stay lazy
and exact for arbitrary (even DTD-invalid) documents.

Predicates are the XML analogue of residual conditions: a target like
``//record[diagnosis='flu']`` is compiled *predicate-free* (an
over-approximation) and the policy is reported as ``XML-DYNPRED`` —
the static table projects the policy onto its structural skeleton, and
the verification pass uses the dynamic-policy touch set to explain
(never mask) the cells where the projection and the interpreter
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.findings import Finding, Severity, REGISTRY
from repro.analysis.probes import as_probe_list
from repro.analysis.xmlpolicy import DtdGraph
from repro.core.errors import ConfigurationError
from repro.core.subjects import Subject
from repro.crypto.hashing import sha256_hex
from repro.xmldb.dtd import Schema
from repro.xmldb.model import Document, Element
from repro.xmldb.xpath import XPath
from repro.xmlsec.authorx import (
    NodeLabel,
    XmlPolicy,
    XmlPolicyBase,
    XmlPropagation,
)

from repro.compile.pathdfa import PatternNfa
# Registers COMPILE-DIVERGE, reused for unexplained label divergences.
import repro.compile.verify  # noqa: F401  (rule registration)

REGISTRY.register(
    "XML-DYNPRED", Severity.INFO, "compile",
    "predicate target compiled as its structural skeleton",
    "a content predicate selects by document data, which no static "
    "table can see; the compiled label is the predicate-free "
    "projection and enforcement must re-check the predicate")

#: Document id used to verify tables compiled for every document
#: ('*' selectors apply to it; any concrete selector does not).
VERIFY_DOC_ID = "__compile-verify__"

_UNMARKED = NodeLabel("none", None)


def xpath_nfa(target: XPath) -> PatternNfa:
    """The tag-chain NFA of one XPath target.

    A chain ``(t0, …, tn)`` — the tags from the document root to an
    element — is accepted exactly when the (predicate-free) target
    selects that element.  An absolute child-first path consumes the
    root with its first test; every other shape consumes the root with
    ``*`` (matching the evaluator, where relative and ``//`` paths
    start *below* the context root).  A descendant axis contributes a
    ``**`` before its test.  Value-selecting targets (``@attr``,
    ``text()``) yield a dead NFA: ``select_elements`` rejects them at
    enforcement time, so such a policy never labels anything.
    """
    final = target.steps[-1]
    if final.test.startswith("@") or final.test == "text()":
        return PatternNfa((), frozenset())
    steps = list(target.steps)
    segments: list[str] = []
    if target.absolute and steps[0].axis == "child":
        segments.append(steps[0].test)
        steps = steps[1:]
    else:
        segments.append("*")
    for step in steps:
        if step.axis == "descendant":
            segments.append("**")
        segments.append(step.test)
    return PatternNfa(tuple(segments), frozenset((len(segments),)))


def target_is_dynamic(target: XPath) -> bool:
    """Whether any step carries a predicate the table must project away."""
    return any(step.predicates for step in target.steps)


@dataclass
class LabelState:
    """One (tag-chain class, inherited-mark context) product state."""

    state_id: int
    tag: str
    key: tuple
    attached: tuple[int, ...]
    label: NodeLabel
    witness: tuple[str, ...] | None = None
    transitions: dict[str, int] = field(default_factory=dict)


class ProfileLabelWalk:
    """The label automaton of one credential-profile class."""

    def __init__(self, table: "CompiledLabelTable",
                 profile_mask: int) -> None:
        self.table = table
        self.mask = profile_mask
        self._states: list[LabelState] = []
        self._by_key: dict[tuple, int] = {}
        self._roots: dict[str, int] = {}
        self.eager_states = 0

    # -- construction ---------------------------------------------------

    def _resolve(self, attached: tuple[int, ...],
                 one_level: tuple[int, ...], cascades: tuple[int, ...],
                 fallback: tuple[int, ...]) -> NodeLabel:
        """Author-X resolution from the three candidate tiers.

        The element's own attachments are the deepest marks; the
        parent's ONE_LEVEL and CASCADE attachments tie one level up;
        older cascades only decide when both nearer tiers are empty.
        """
        tier = attached or tuple(sorted({*one_level, *cascades}))
        if not tier:
            tier = fallback
        if not tier:
            return _UNMARKED
        return XmlPolicyBase._label_from_marks(
            [(0, self.table.policies[i]) for i in tier])

    def _intern(self, tag: str, masks: tuple[int, ...],
                one_level: tuple[int, ...], cascades: tuple[int, ...],
                fallback: tuple[int, ...],
                witness: tuple[str, ...] | None) -> int:
        key = (tag, masks, one_level, cascades, fallback)
        state_id = self._by_key.get(key)
        if state_id is not None:
            state = self._states[state_id]
            if state.witness is None and witness is not None:
                state.witness = witness
            return state_id
        self.table._charge_state()
        nfas = self.table.nfas
        attached = tuple(i for i, mask in enumerate(masks)
                         if mask and nfas[i].accepts(mask))
        label = self._resolve(attached, one_level, cascades, fallback)
        state = LabelState(len(self._states), tag, key, attached, label,
                           witness)
        self._states.append(state)
        self._by_key[key] = state.state_id
        return state.state_id

    def root_state(self, tag: str) -> int:
        state_id = self._roots.get(tag)
        if state_id is None:
            nfas = self.table.nfas
            masks = tuple(
                nfas[i].step(nfas[i].start_mask, tag)
                if self.mask >> i & 1 else 0
                for i in range(len(nfas)))
            state_id = self._intern(tag, masks, (), (), (),
                                    witness=(tag,))
            self._roots[tag] = state_id
        return state_id

    def step(self, state_id: int, tag: str) -> int:
        """Memoized child transition; exact for arbitrary tags."""
        state = self._states[state_id]
        nxt = state.transitions.get(tag)
        if nxt is None:
            nfas = self.table.nfas
            masks = tuple(
                nfas[i].step(mask, tag) if mask else 0
                for i, mask in enumerate(state.key[1]))
            policies = self.table.policies
            one_level = tuple(
                i for i in state.attached
                if policies[i].propagation is XmlPropagation.ONE_LEVEL)
            cascades = tuple(
                i for i in state.attached
                if policies[i].propagation is XmlPropagation.CASCADE)
            fallback = state.key[3] or state.key[4]
            witness = (None if state.witness is None
                       else state.witness + (tag,))
            nxt = self._intern(tag, masks, one_level, cascades,
                               fallback, witness)
            state.transitions[tag] = nxt
        return nxt

    # -- lookup ---------------------------------------------------------

    def label(self, state_id: int) -> NodeLabel:
        return self._states[state_id].label

    def label_chain(self, tags: Sequence[str]) -> NodeLabel:
        state_id = self.root_state(tags[0])
        for tag in tags[1:]:
            state_id = self.step(state_id, tag)
        return self.label(state_id)

    def state(self, state_id: int) -> LabelState:
        return self._states[state_id]

    def states(self) -> Iterator[LabelState]:
        return iter(self._states)

    @property
    def state_count(self) -> int:
        return len(self._states)

    def explore(self, graph: DtdGraph) -> int:
        """BFS-close over DTD child edges, assigning witness chains."""
        start = self.root_state(graph.root)
        pending = [start]
        seen = {start}
        while pending:
            state_id = pending.pop(0)
            tag = self._states[state_id].tag
            for child_tag in sorted(graph.child_tags(tag)):
                nxt = self.step(state_id, child_tag)
                if nxt not in seen:
                    seen.add(nxt)
                    pending.append(nxt)
        self.eager_states = len(seen)
        return self.eager_states


@dataclass(frozen=True)
class XmlCompileStats:
    """Size counters of one compiled label table."""

    policies: int
    profile_classes: int
    states: int
    eager_states: int
    dynamic_policies: int
    source_generation: int
    doc_id: str


class CompiledLabelTable:
    """Per-profile label automata compiled from one XML policy base."""

    def __init__(self, policies: Sequence[XmlPolicy], graph: DtdGraph,
                 doc_id: str, source_generation: int,
                 probes: Sequence[Subject],
                 max_states: int = 50_000) -> None:
        self.source_generation = source_generation
        self.policies = tuple(
            sorted(policies, key=lambda p: p.policy_id))
        self.graph = graph
        self.doc_id = doc_id
        self.probes = tuple(probes)
        self.max_states = max_states
        self.nfas = tuple(xpath_nfa(p.target) for p in self.policies)
        self.dynamic_mask = 0
        for index, policy in enumerate(self.policies):
            if target_is_dynamic(policy.target):
                self.dynamic_mask |= 1 << index
        self._profile_masks: dict[Subject, int] = {}
        self._walks: dict[int, ProfileLabelWalk] = {}
        self._state_total = 0

    def _charge_state(self) -> None:
        if self._state_total >= self.max_states:
            raise ConfigurationError(
                f"XML label table exceeded {self.max_states} states "
                f"across profiles; the policy targets are "
                f"pathologically diverse")
        self._state_total += 1

    # -- profiles -------------------------------------------------------

    def profile(self, subject: Subject) -> int:
        """Bit *i* set iff ``policies[i].applies_to_subject(subject)``."""
        mask = self._profile_masks.get(subject)
        if mask is None:
            mask = 0
            for index, policy in enumerate(self.policies):
                if policy.applies_to_subject(subject):
                    mask |= 1 << index
            self._profile_masks[subject] = mask
        return mask

    def profile_classes(self, probes: Sequence[Subject] | None = None
                        ) -> list[tuple[int, Subject, int]]:
        """Distinct (mask, witness, size) classes of a probe universe."""
        grouped: dict[int, list[Subject]] = {}
        for subject in (self.probes if probes is None else probes):
            grouped.setdefault(self.profile(subject), []).append(subject)
        return [(mask, members[0], len(members))
                for mask, members in sorted(grouped.items())]

    def walk(self, profile_mask: int) -> ProfileLabelWalk:
        walk = self._walks.get(profile_mask)
        if walk is None:
            walk = ProfileLabelWalk(self, profile_mask)
            self._walks[profile_mask] = walk
        return walk

    # -- lookup ---------------------------------------------------------

    def label_chain(self, subject: Subject,
                    tags: Sequence[str]) -> NodeLabel:
        return self.walk(self.profile(subject)).label_chain(tags)

    def label_document(self, subject: Subject,
                       document: Document) -> dict[int, NodeLabel]:
        """One memoized automaton transition per element.

        Returns the same ``id(element) → NodeLabel`` map as the
        interpreter's ``label_document`` — the equivalence the
        verification pass and the property suite assert.
        """
        walk = self.walk(self.profile(subject))
        labels: dict[int, NodeLabel] = {}

        def visit(node: Element, state_id: int) -> None:
            labels[id(node)] = walk.label(state_id)
            for child in node.element_children:
                visit(child, walk.step(state_id, child.tag))

        visit(document.root, walk.root_state(document.root.tag))
        return labels

    # -- reporting ------------------------------------------------------

    def explore(self) -> int:
        """Eagerly close every probe profile's walk over the DTD."""
        total = 0
        for mask, _witness, _size in self.profile_classes():
            total += self.walk(mask).explore(self.graph)
        return total

    def stats(self) -> XmlCompileStats:
        return XmlCompileStats(
            policies=len(self.policies),
            profile_classes=len(self.profile_classes()),
            states=self._state_total,
            eager_states=sum(w.eager_states
                             for w in self._walks.values()),
            dynamic_policies=self.dynamic_mask.bit_count(),
            source_generation=self.source_generation,
            doc_id=self.doc_id)

    def compute_digest(self) -> str:
        """Digest of the policies plus every explored automaton shape."""
        lines = [f"doc_id={self.doc_id}",
                 f"generation={self.source_generation}"]
        for index, policy in enumerate(self.policies):
            lines.append(
                f"policy|{policy.policy_id}|{policy.sign.value}"
                f"|{policy.privilege.value}|{policy.document_selector}"
                f"|{policy.target}|{policy.propagation.value}"
                f"|{int(self.dynamic_mask >> index & 1)}"
                f"|{policy.subject_spec.description}")
        for mask in sorted(self._walks):
            walk = self._walks[mask]
            for state in walk.states():
                edges = ",".join(
                    f"{tag}>{dst}" for tag, dst
                    in sorted(state.transitions.items()))
                deciding = state.label.deciding_policy
                lines.append(
                    f"walk|{mask}|{state.state_id}|{state.tag}"
                    f"|{state.label.access}"
                    f"|{'' if deciding is None else deciding.policy_id}"
                    f"|{edges}")
        return sha256_hex("\n".join(lines))


def compile_xml_policy_base(base: XmlPolicyBase, schema: Schema,
                            doc_id: str = "*",
                            probes: Sequence[Subject] | None = None,
                            explore: bool = True,
                            max_states: int = 50_000
                            ) -> CompiledLabelTable:
    """Compile one XML policy base (for one document selector class).

    Only policies applying to *doc_id* are compiled; ``doc_id='*'``
    compiles the collection-wide policies, the table every document
    shares.
    """
    policies = [p for p in base if p.applies_to_document(doc_id)]
    table = CompiledLabelTable(
        policies, DtdGraph(schema), doc_id,
        source_generation=base.generation,
        probes=as_probe_list(probes), max_states=max_states)
    if explore:
        table.explore()
    return table


# -- verification ---------------------------------------------------------


def _label_key(label: NodeLabel) -> tuple[str, int | None]:
    deciding = label.deciding_policy
    return (label.access,
            None if deciding is None else deciding.policy_id)


def _chain_document(tags: Sequence[str]) -> tuple[Document, Element]:
    root = Element(tags[0])
    node = root
    for tag in tags[1:]:
        child = Element(tag)
        node.append(child)
        node = child
    return Document(root, name="compile-verify"), node


@dataclass(frozen=True)
class LabelDisagreement:
    """One cell where table and labeller differ, with explanations."""

    profile_mask: int
    subject_name: str
    chain: tuple[str, ...]
    compiled: NodeLabel
    interpreted: NodeLabel
    explanations: tuple[str, ...]

    @property
    def explained(self) -> bool:
        return bool(self.explanations)


@dataclass
class LabelVerification:
    """Outcome of one verification pass over a compiled label table."""

    digest: str
    source_generation: int
    base_generation: int
    doc_id: str
    cells: int = 0
    disagreements: list[LabelDisagreement] = field(default_factory=list)
    dynamic_policy_ids: tuple[int, ...] = ()

    @property
    def explained(self) -> int:
        return sum(1 for d in self.disagreements if d.explained)

    @property
    def unexplained(self) -> int:
        return sum(1 for d in self.disagreements if not d.explained)

    @property
    def verdict(self) -> str:
        return "proved" if self.unexplained == 0 else "refuted"

    def findings(self) -> list[Finding]:
        found = [
            REGISTRY.make_finding(
                "XML-DYNPRED", f"policy#{policy_id}",
                "predicate target is compiled predicate-free; the "
                "static labels are its structural projection",
                fix_hint="keep predicate policies on the interpreted "
                         "path, or split the predicate into a "
                         "structural target")
            for policy_id in self.dynamic_policy_ids]
        for disagreement in self.disagreements:
            if disagreement.explained:
                continue
            chain = "/".join(disagreement.chain)
            found.append(REGISTRY.make_finding(
                "COMPILE-DIVERGE",
                f"chain({chain!r}, subject="
                f"{disagreement.subject_name})",
                f"table labels {disagreement.compiled.access!r}; the "
                f"labeller says {disagreement.interpreted.access!r}; "
                f"no dynamic policy touches the chain",
                fix_hint="recompile the table from the current XML "
                         "policy base (generation "
                         f"{self.base_generation} vs compiled "
                         f"{self.source_generation})"))
        return found

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "source_generation": self.source_generation,
            "base_generation": self.base_generation,
            "doc_id": self.doc_id,
            "cells": self.cells,
            "disagreements": len(self.disagreements),
            "explained": self.explained,
            "unexplained": self.unexplained,
            "dynamic_policies": len(self.dynamic_policy_ids),
            "verdict": self.verdict,
        }


def verify_label_table(table: CompiledLabelTable, base: XmlPolicyBase,
                       probes: Sequence[Subject] | None = None
                       ) -> LabelVerification:
    """Replay every explored (profile, chain) cell through the labeller.

    Each witness chain is materialized as a spine document and labelled
    by *base* (the authority the table claims to compile); the deepest
    element's label must equal the compiled state's.  Disagreements are
    explained by the dynamic-policy touch set — a predicate policy
    whose skeleton accepts some prefix of the chain — and anything
    unexplained is a ``COMPILE-DIVERGE`` error, the stale-table
    signature.
    """
    probe_list = as_probe_list(
        probes if probes is not None else table.probes)
    verify_doc_id = (VERIFY_DOC_ID if table.doc_id == "*"
                     else table.doc_id)
    result = LabelVerification(
        digest=table.compute_digest(),
        source_generation=table.source_generation,
        base_generation=base.generation,
        doc_id=table.doc_id,
        dynamic_policy_ids=tuple(
            table.policies[i].policy_id
            for i in range(len(table.policies))
            if table.dynamic_mask >> i & 1))
    for mask, witness_subject, _size in table.profile_classes(
            probe_list):
        walk = table.walk(mask)
        if not walk.eager_states:
            walk.explore(table.graph)
        for state in list(walk.states()):
            if state.witness is None:
                continue
            document, deepest = _chain_document(state.witness)
            interpreted = base.label_document(
                witness_subject, verify_doc_id, document,
                use_cache=False)[id(deepest)]
            result.cells += 1
            if _label_key(state.label) == _label_key(interpreted):
                continue
            explanations = tuple(
                f"XML-DYNPRED at policy#{table.policies[i].policy_id}"
                for i in _dynamic_touch_set(table, mask,
                                            state.witness))
            result.disagreements.append(LabelDisagreement(
                mask, witness_subject.identity.name, state.witness,
                state.label, interpreted, explanations))
    return result


def _dynamic_touch_set(table: CompiledLabelTable, profile_mask: int,
                       chain: Sequence[str]) -> list[int]:
    """Dynamic policies whose skeleton selects any prefix of *chain*."""
    touched: list[int] = []
    active = table.dynamic_mask & profile_mask
    for index, nfa in enumerate(table.nfas):
        if not active >> index & 1:
            continue
        mask = nfa.start_mask
        for tag in chain:
            mask = nfa.step(mask, tag)
            if nfa.accepts(mask):
                touched.append(index)
                break
    return touched

"""E9 — RDF needs *semantic*-level security (§3.2).

Claim: "with RDF we also need to ensure that security is preserved at
the semantic level" — syntactic (stored-triple-only) enforcement leaks
through RDFS entailment, reification and containers.

Operationalization: synthetic personnel graphs with secret employments,
a public schema (domain/range/subClassOf), reifications and containers;
count leaked derived triples and reification leaks under syntactic vs
semantic enforcement.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.mls import Label, Level
from repro.rdfdb.containers import create_container
from repro.rdfdb.model import RDF, RDFS, Literal, Namespace, triple
from repro.rdfdb.reification import reify
from repro.rdfdb.security import SecureRdfStore

EX = Namespace("http://agency.example/")
SECRET = Label(Level.SECRET)
UNCLEARED = Label(Level.UNCLASSIFIED)


def _build(person_count: int, seed: int) -> SecureRdfStore:
    rng = random.Random(seed)
    store = SecureRdfStore()
    # Public schema.
    store.add(triple(EX.worksFor, RDFS.domain, EX.Employee))
    store.add(triple(EX.Employee, RDFS.subClassOf, EX.Person))
    store.add(triple(EX.covertAgent, RDFS.subPropertyOf, EX.worksFor))
    secret_members = []
    for index in range(person_count):
        person = EX[f"person{index}"]
        store.add(triple(person, EX.name, f"Person {index}"))
        if rng.random() < 0.3:
            fact = triple(person, EX.covertAgent, EX.agency)
            store.add(fact)
            store.classify(fact, SECRET, protect_reifications=False)
            secret_members.append(person)
            if rng.random() < 0.5:
                reify(store.store, fact)  # unprotected reification
        else:
            store.add(triple(person, EX.worksFor, EX[f"firm{index % 5}"]))
    if secret_members:
        node = create_container(
            store.store, "Bag",
            [Literal(str(m)) for m in secret_members])
        store.classify_container(node, SECRET)
    return store


def verdict(result: ExperimentResult) -> list[str]:
    leaks = [row[4] for row in result.rows]
    context = next((o for o in result.observations
                    if "declassification" in o), "")
    return failed(
        (all(row[4] > 0 for row in result.rows),
         "the syntactic strawman leaks derived facts"),
        (all(row[5] > 0 for row in result.rows),
         "the syntactic strawman leaks reifications"),
        (all(row[3] < row[2] for row in result.rows),
         "semantic visible is below naive visible"),
        (leaks == sorted(leaks), "derived leaks grow with the graph"),
        ("hidden during wartime=True" in context,
         "the §5 fact is hidden during wartime"),
        ("visible after=True" in context, "the §5 fact is visible after"),
    )


@register("E9", "syntactic-only RDF enforcement leaks through inference "
               "and reification; semantic enforcement does not (§3.2)",
          verdict)
def run() -> ExperimentResult:
    rows = []
    for person_count in (50, 150, 400):
        store = _build(person_count, seed=16)
        naive = store.query(UNCLEARED, infer=True, semantic=False)
        semantic = store.query(UNCLEARED, infer=True, semantic=True)
        leaked = store.leaked_by_syntactic_enforcement(UNCLEARED)
        reif_leaks = store.reification_leaks(UNCLEARED)
        rows.append([person_count, len(store.store),
                     len(naive), len(semantic), len(leaked),
                     len(reif_leaks) // 3])
    # Context declassification demo on the last store.
    fact = triple(EX.person0, EX.missionReport, "delivered")
    store.add(fact)
    store.add_context_rule(fact, "wartime", SECRET)
    store.set_context("wartime", True)
    hidden_during = fact not in store.query(UNCLEARED)
    store.set_context("wartime", False)
    visible_after = fact in store.query(UNCLEARED)
    observations = [
        "derived-triple leaks grow with the share of classified facts; "
        "semantic enforcement (closing over the visible subgraph) "
        "eliminates them",
        "unprotected reifications re-encode every classified statement "
        "they describe — co-classification (classify with "
        "protect_reifications) closes that channel",
        f"context declassification: hidden during wartime={hidden_during}, "
        f"visible after={visible_after} (§5's example)",
    ]
    return ExperimentResult(
        "E9", "RDF semantic enforcement vs the syntactic strawman",
        ["persons", "stored triples", "naive visible",
         "semantic visible", "derived leaks", "reified leaks"],
        rows, observations)

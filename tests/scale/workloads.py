"""Shared random-workload builders for the repro.scale test suite.

Everything is seeded: a failing property case reports its seed and
replays exactly.
"""

import random

from repro.core.credentials import (
    anyone,
    attribute_equals,
    has_credential,
    has_role,
)
from repro.core.policy import (
    Action,
    Policy,
    Propagation,
    deny,
    grant,
)
from repro.datagen.documents import DEPARTMENTS
from repro.datagen.population import ROLE_NAMES, generate_population

#: Literal resource heads plus glob heads (the broadcast case).
HEADS = ("hospital", "school", "clinic", "lab", "archive")
GLOB_HEADS = ("**", "*", "r*")


def random_policy(rng: random.Random) -> Policy:
    if rng.random() < 0.2:
        head = rng.choice(GLOB_HEADS)
    else:
        head = rng.choice(HEADS)
    resource = rng.choice((
        f"{head}/records/r{rng.randrange(1, 40)}/**",
        f"{head}/records/**",
        f"{head}/**",
        head,
    ))
    if rng.random() < 0.3:
        expression = anyone()
    elif rng.random() < 0.7:
        expression = has_role(rng.choice(ROLE_NAMES))
    else:
        expression = attribute_equals(
            "physician", "department", rng.choice(("cardiology",
                                                   "oncology")))
    action = rng.choice((Action.READ, Action.WRITE))
    propagation = rng.choice((Propagation.CASCADE, Propagation.CASCADE,
                              Propagation.LOCAL, Propagation.ONE_LEVEL))
    condition = None
    if rng.random() < 0.15:
        threshold = rng.randrange(10)
        condition = (lambda payload, t=threshold:
                     isinstance(payload, dict)
                     and payload.get("severity", 0) >= t)
    priority = rng.randrange(5)
    make = deny if rng.random() < 0.25 else grant
    return make(expression, action, resource, propagation=propagation,
                condition=condition, priority=priority)


def random_policies(rng: random.Random, count: int) -> list[Policy]:
    return [random_policy(rng) for _ in range(count)]


#: Eight literal heads over 60 records each: the serving benchmark's
#: policy shape, where almost every pattern segment is a literal.
LITERAL_HEADS = ("hospital", "clinic", "lab", "pharmacy",
                 "billing", "research", "archive", "admin")


def literal_policies(rng: random.Random, count: int) -> list[Policy]:
    """*count* role/credential policies on one record each (~15%
    denials), plus role grants on every head's documents."""
    policies = []
    for index in range(count):
        head = LITERAL_HEADS[index % len(LITERAL_HEADS)]
        resource = f"{head}/records/r{rng.randrange(1, 61)}/**"
        roll = rng.random()
        if roll < 0.5:
            expression = has_role(rng.choice(ROLE_NAMES))
        elif roll < 0.8:
            expression = attribute_equals(
                "physician", "department", rng.choice(DEPARTMENTS))
        else:
            expression = has_credential(
                rng.choice(["physician", "researcher", "insurer"]))
        make = deny if rng.random() < 0.15 else grant
        policies.append(make(expression, Action.READ, resource))
    for head in LITERAL_HEADS:
        for role in ROLE_NAMES:
            for action in (Action.READ, Action.WRITE):
                policies.append(grant(has_role(role), action,
                                      f"{head}/docs/**"))
    return policies


def random_requests(rng: random.Random, count: int,
                    subject_count: int = 20) -> list[tuple]:
    directory = generate_population(subject_count, seed=rng.randrange(
        1 << 30))
    subjects = [directory.get(f"user{i:05d}")
                for i in range(subject_count)]
    requests = []
    for _ in range(count):
        head = rng.choice(HEADS + ("other", "r1"))
        path = rng.choice((
            f"{head}/records/r{rng.randrange(1, 40)}/chart",
            f"{head}/records/r{rng.randrange(1, 40)}",
            f"{head}/summary",
            head,
        ))
        payload = None
        if rng.random() < 0.2:
            payload = {"severity": rng.randrange(10)}
        requests.append((rng.choice(subjects),
                         rng.choice((Action.READ, Action.WRITE)),
                         path, payload))
    return requests

"""A literal-heavy deployment for the policy compiler to prove equivalent.

Run ``PYTHONPATH=src python -m repro.analysis --compile-report
examples/compile_literal_fixture.py`` to compile each shard of the base
below, as a four-shard router places it, and statically verify every
compiled cell against the interpreter.  The base has the serving
benchmark's shape: 400 role/credential policies on single records
under eight literal heads (~15% denials), plus role grants on each
head's documents.  Almost every pattern segment is a literal, so the
path automaton's literal dispatch computes almost every transition
that the verification replays.
"""

import random

from repro.core.credentials import attribute_equals, has_credential, has_role
from repro.core.policy import Action, PolicyBase, deny, grant
from repro.datagen.documents import DEPARTMENTS
from repro.datagen.population import ROLE_NAMES, generate_population
from repro.gateway import EpochalShardRouter

HEADS = ("hospital", "clinic", "lab", "pharmacy",
         "billing", "research", "archive", "admin")
SUBJECTS = list(generate_population(40, seed=44).subjects())

_rng = random.Random(44)
_policies = []
for _index in range(400):
    _head = HEADS[_index % len(HEADS)]
    _resource = f"{_head}/records/r{_rng.randrange(1, 61)}/**"
    _roll = _rng.random()
    if _roll < 0.5:
        _expression = has_role(_rng.choice(ROLE_NAMES))
    elif _roll < 0.8:
        _expression = attribute_equals("physician", "department",
                                       _rng.choice(DEPARTMENTS))
    else:
        _expression = has_credential(
            _rng.choice(["physician", "researcher", "insurer"]))
    _make = deny if _rng.random() < 0.15 else grant
    _policies.append(_make(_expression, Action.READ, _resource))
for _head in HEADS:
    for _role in ROLE_NAMES:
        for _action in (Action.READ, Action.WRITE):
            _policies.append(grant(has_role(_role), _action,
                                   f"{_head}/docs/**"))

# One base per shard: the policy sets the router compiles.
SHARD_0, SHARD_1, SHARD_2, SHARD_3 = (
    PolicyBase(shard.policies) for shard in
    EpochalShardRouter.from_policies(_policies, shard_count=4).publication)

"""A recovered policy store decides exactly like the live one.

:class:`DurablePolicyStore` logs every policy, its credential expression
included, into WAL records and pickled checkpoints.  Over seeded random
policy sets with removals mixed in, recovery from the log alone, from a
checkpoint alone, and from a checkpoint plus a log suffix rebuilds a
policy base whose decisions are byte-identical to the live store's on
random requests.
"""

import random

import pytest

from repro.core.evaluator import PolicyEvaluator
from repro.core.policy import PolicyBase
from repro.wal.durable import DurablePolicyStore
from repro.wal.vfs import MemVfs

from tests.faults.test_async_gateway_chaos import decision_bytes
from tests.scale.workloads import random_policies, random_requests

MODES = ("log_only", "checkpoint_only", "checkpoint_then_log")


def loggable_policies(seed: int):
    """Random policies less the content-conditioned ones: a condition
    is a lambda, which the WAL refuses to log."""
    return [policy for policy in random_policies(random.Random(seed), 40)
            if policy.condition is None]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mode", MODES)
def test_recovered_store_decides_like_the_live_one(mode, seed):
    rng = random.Random(seed + 300)
    policies = loggable_policies(seed)
    half = len(policies) // 2
    vfs = MemVfs()
    store = DurablePolicyStore(PolicyBase(), vfs, auto_flush=False)
    for policy in policies[:half]:
        store.add(policy)
    if mode == "checkpoint_then_log":
        store.checkpoint()
    for policy in policies[half:]:
        store.add(policy)
    for policy in rng.sample(policies, len(policies) // 4):
        store.remove(policy)
    if mode == "checkpoint_only":
        store.checkpoint()
    digest = store.state_digest()
    store.close()

    recovered, report = DurablePolicyStore.recover(vfs, auto_flush=False)
    assert recovered.state_digest() == digest
    assert (report.records_replayed == 0) == (mode == "checkpoint_only")

    live = PolicyEvaluator(store.inner)
    after = PolicyEvaluator(recovered.inner)
    for request in random_requests(random.Random(seed + 9000), 40):
        assert (decision_bytes(after.decide(*request))
                == decision_bytes(live.decide(*request)))

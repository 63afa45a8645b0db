"""E12 — Multiparty privacy-preserving mining ([7], §3.3).

Claim: Clifton's "multiparty security policy approach" mines across
organizations without pooling raw data in a trusted center.

Operationalization: horizontally partition the basket corpus across K
parties; secure-sum distributed Apriori must equal centralized mining
exactly, at a message cost of O(K) per candidate itemset, with no party
ever revealing a local count.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult, failed, register
from repro.datagen.tabular import market_baskets
from repro.privacy.multiparty import (
    centralized_apriori,
    collusion_reconstructs,
    distributed_apriori,
    partition_transactions,
    secure_sum,
)


def verdict(result: ExperimentResult) -> list[str]:
    first, last = result.rows[0], result.rows[-1]
    return failed(
        (all(row[2] is True for row in result.rows),
         "distributed equals centralized at every party count"),
        (len({row[1] for row in result.rows}) == 1,
         "frequent itemsets do not depend on the partitioning"),
        (len({row[3] for row in result.rows}) == 1,
         "secure-sum rounds do not depend on the party count"),
        (last[4] / first[4] == last[0] / first[0],
         "messages grow linearly with the party count"),
    )


@register("E12", "secure-sum multiparty mining equals centralized "
                "mining without pooling raw data ([7])", verdict)
def run() -> ExperimentResult:
    baskets = market_baskets(1000, seed=18)
    rows = []
    for party_count in (2, 4, 8, 16):
        parties = partition_transactions(baskets, party_count, seed=19)
        outcome = distributed_apriori(parties, 0.15, seed=20)
        central = centralized_apriori(parties, 0.15)
        rows.append([
            party_count,
            len(outcome.frequent),
            outcome.frequent == central,
            outcome.secure_sum_rounds,
            outcome.messages,
        ])

    # Privacy of the primitive itself.
    rng = random.Random(21)
    values = [rng.randrange(1000) for _ in range(6)]
    names = [f"p{i}" for i in range(6)]
    trace = secure_sum(values, names, rng)
    masked = sum(1 for observed in trace.observed_by_party.values()
                 if observed not in values)
    collusion = sum(
        1 for index in range(1, 5)
        if collusion_reconstructs(trace, values, names, index))
    observations = [
        "distributed results are bit-identical to centralized mining "
        "at every K — privacy costs messages, not accuracy",
        f"secure-sum privacy: {masked}/{len(names)} observed partial "
        f"sums reveal no input; neighbour collusion reconstructs "
        f"{collusion}/4 middle parties (the documented ring weakness)",
        "messages grow linearly with K at fixed rounds — the O(K) "
        "per-itemset cost",
    ]
    return ExperimentResult(
        "E12", "Multiparty mining: exactness and message cost "
               "(1000 baskets, min_support=0.15)",
        ["parties", "frequent itemsets", "equals centralized",
         "secure-sum rounds", "messages"],
        rows, observations)

"""E7 — Randomization-based PPDM: privacy vs utility ([1], §3.3).

Claim: "continue with mining but at the same time ensure privacy as much
as possible" — aggregate patterns survive noise levels that make
individual values meaningless.

Operationalization: the Agrawal–Srikant sweep on the bimodal age column:
noise scale → (privacy interval, attacker MAE on individuals,
reconstruction TV-distance vs the naive estimate).  Plus the MASK-style
itemset-mining variant: keep-probability → itemset F1.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, failed, register
from repro.datagen.tabular import market_baskets, numeric_column
from repro.privacy.association import apriori, itemset_f1, mine_randomized
from repro.privacy.ppdm import (
    NoiseModel,
    histogram_distance,
    individual_error,
    privacy_interval,
    randomize,
    reconstruct_distribution,
    true_distribution,
)


def verdict(result: ExperimentResult) -> list[str]:
    intervals = [row[1] for row in result.rows]
    errors = [row[2] for row in result.rows]
    noise_40 = [row[3] for row in result.rows if row[0] == 40.0]
    return failed(
        (all(row[3] < row[4] for row in result.rows if row[0] > 0),
         "recon TV-dist beats naive TV-dist at every noise level"),
        (intervals == sorted(intervals), "privacy interval grows with noise"),
        (errors == sorted(errors), "individual MAE grows with noise"),
        (any(tv_dist < 0.2 for tv_dist in noise_40),
         "recon TV-dist stays below 0.2 at noise 40 (a 76-unit interval)"),
    )


@register("E7", "randomization preserves aggregate mining utility while "
               "hiding individual values ([1])", verdict)
def run() -> ExperimentResult:
    ages = numeric_column(4000, seed=11)
    bins = np.linspace(15, 100, 18)
    actual = true_distribution(ages, bins)
    rows = []
    for scale in (0.0, 10.0, 20.0, 40.0, 80.0):
        noise = NoiseModel("uniform", scale)
        released = randomize(ages, noise, seed=12)
        estimated = reconstruct_distribution(released, noise, bins)
        naive = true_distribution(released, bins)
        rows.append([
            scale,
            privacy_interval(noise, 0.95),
            individual_error(ages, released),
            histogram_distance(estimated, actual),
            histogram_distance(naive, actual),
        ])

    baskets = market_baskets(800, seed=13)
    items = sorted({item for basket in baskets for item in basket})
    truth = apriori(baskets, 0.15, max_size=2)
    mining_rows = []
    for keep in (1.0, 0.95, 0.85, 0.7, 0.55):
        mined = mine_randomized(baskets, items, keep, 0.15, max_size=2,
                                seed=14)
        mining_rows.append([keep, itemset_f1(mined.keys(),
                                             truth.keys())])
    observations = [
        "reconstruction tracks the true distribution far better than "
        "the naive histogram at every noise level > 0",
        "attacker error on individuals grows linearly with the privacy "
        "interval while aggregate error grows slowly — the [1] shape",
        "itemset mining on flipped baskets: F1 " + ", ".join(
            f"p={keep}: {f1:.2f}" for keep, f1 in mining_rows),
    ]
    return ExperimentResult(
        "E7", "Agrawal–Srikant randomization: privacy vs reconstruction "
              "accuracy (bimodal ages, n=4000)",
        ["noise scale", "privacy interval", "individual MAE",
         "recon TV-dist", "naive TV-dist"],
        rows, observations)

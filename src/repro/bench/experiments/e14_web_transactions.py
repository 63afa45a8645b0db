"""E14 — Web transaction models: open bidding vs immediate locking (§2.1).

Claim: "the item should not be locked immediately when a potential buyer
makes a bid.  It has to be left open until several bids are received and
the item is sold.  That is, special transaction models are needed."

Operationalization: the same randomized bid stream over N items through
both engines; compare accepted bids, items sold, revenue, and average
sale price.
"""

from __future__ import annotations

import random

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.errors import TransactionError
from repro.relational.bidding import (
    Bid,
    ImmediateLockAuction,
    OpenBidAuction,
)


def _bid_stream(item_count: int, bids_per_item: float,
                seed: int) -> tuple[list[str], list[Bid]]:
    rng = random.Random(seed)
    items = [f"item{i:04d}" for i in range(item_count)]
    bids: list[Bid] = []
    total_bids = int(item_count * bids_per_item)
    for index in range(total_bids):
        item = rng.choice(items)
        bids.append(Bid(f"bidder{index % 97}", item,
                        round(rng.uniform(5.0, 100.0), 2)))
    rng.shuffle(bids)
    return items, bids


def verdict(result: ExperimentResult) -> list[str]:
    gaps = [row[8] - row[7] for row in result.rows]
    return failed(
        (all(row[2] == 0 for row in result.rows), "open rejected is 0"),
        (all(row[1] > 0 for row in result.rows), "lock rejected exceeds 0"),
        (all(row[8] >= row[7] for row in result.rows),
         "open revenue is at least lock revenue"),
        (gaps == sorted(gaps), "the revenue gap widens with contention"),
    )


@register("E14", "open bidding accepts every bid and extracts better "
                "prices than lock-on-first-bid (§2.1)", verdict)
def run() -> ExperimentResult:
    rows = []
    for bids_per_item in (2.0, 5.0, 12.0):
        items, bids = _bid_stream(200, bids_per_item, seed=24)
        reserve = 20.0

        locked = ImmediateLockAuction()
        for item in items:
            locked.list_item(item, reserve)
        for bid in bids:
            locked.place_bid(bid)
        for item in items:
            try:
                locked.complete_sale(item)
            except TransactionError:
                pass  # unsold items have no sale to complete

        open_model = OpenBidAuction()
        for item in items:
            open_model.list_item(item, reserve)
        for bid in bids:
            open_model.place_bid(bid)
        for item in items:
            open_model.close(item)

        def average_price(stats):
            return (stats.revenue / stats.items_sold
                    if stats.items_sold else 0.0)

        rows.append([
            bids_per_item,
            locked.stats.bids_rejected, open_model.stats.bids_rejected,
            locked.stats.items_sold, open_model.stats.items_sold,
            average_price(locked.stats), average_price(open_model.stats),
            locked.stats.revenue, open_model.stats.revenue,
        ])
    observations = [
        "the lock model rejects every bid after the first and sells at "
        "the first acceptable price; open bidding sells at the best",
        "the revenue gap widens with contention (more bids per item) — "
        "exactly why the paper calls for new transaction models",
    ]
    return ExperimentResult(
        "E14", "Web transactions: immediate-lock vs open-bid auctions "
               "(200 items, reserve 20)",
        ["bids/item", "lock rejected", "open rejected", "lock sold",
         "open sold", "lock avg price", "open avg price",
         "lock revenue", "open revenue"],
        rows, observations)

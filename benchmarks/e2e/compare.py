"""``run.py --compare A.json B.json``: did B get worse than A?

A and B are result sets written by ``run.py --runs N --out FILE``.  One
row per workload x end-to-end metric: both medians and quartiles, the
bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``same`` — it does not;
* ``unresolved`` — a set's own quartile spread exceeds the bound, so
  the medians cannot tell, unless every run of B lies on one side of
  every run of A.
"""

from __future__ import annotations

import json
import statistics


def load_set(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("quick"):
        raise SystemExit(f"{path}: a --quick result set is a smoke run, "
                         f"not a measurement; refusing to compare it")
    return data


def describe(values: list[float]) -> dict[str, float]:
    """Median, quartiles and quartile spread (share of the median)."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, how much worse B's median is, as a share of A's)."""
    sign = 1.0 if better == "lower" else -1.0
    stats_a, stats_b = describe(a), describe(b)
    worse_by = sign * (stats_b["median"] - stats_a["median"]) \
        / stats_a["median"]
    if max(stats_a["spread"], stats_b["spread"]) > bound:
        above, below = min(b) > max(a), max(b) < min(a)
        if above or below:
            return ("worse" if above == (better == "lower")
                    else "better"), worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def rows(set_a: dict, set_b: dict, end_to_end: dict) -> list[dict]:
    out = []
    for workload, block in set_a["workloads"].items():
        other = set_b["workloads"].get(workload)
        if other is None:
            continue
        for name, spec in end_to_end.items():
            a = block["end_to_end"][name]
            b = other["end_to_end"][name]
            result, worse_by = verdict(a, b, spec["better"], spec["bound"])
            out.append({"workload": workload, "metric": name,
                        "unit": spec["unit"], "bound": spec["bound"],
                        "a": describe(a), "b": describe(b),
                        "worse_by": worse_by, "verdict": result})
    return out


def render(table: list[dict]) -> str:
    lines = [f"{'workload':14s} {'metric':14s} {'unit':5s} "
             f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
             f"{'worse by':>9s} {'bound':>6s}  verdict"]
    for row in table:
        cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"
                 for s in (row["a"], row["b"])]
        lines.append(
            f"{row['workload']:14s} {row['metric']:14s} {row['unit']:5s} "
            f"{cells[0]:>34s} {cells[1]:>34s} "
            f"{row['worse_by']:+9.2%} {row['bound']:6.0%}  "
            f"{row['verdict']}")
    return "\n".join(lines)

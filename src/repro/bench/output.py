"""One place that knows where benchmark JSON reports live.

``benchmarks/bench_faults.py`` and ``benchmarks/bench_wal.py`` each
persist their report to exactly one file: ``--output`` when given,
else the committed copy under ``benchmarks/results/BENCH_<name>.json``
(what CI uploads and the docs link to).
"""

from __future__ import annotations

import json
import pathlib

#: src/repro/bench/output.py -> repo root is three levels up from src.
RESULTS_DIR = (pathlib.Path(__file__).resolve().parents[3]
               / "benchmarks" / "results")


def default_output(name: str) -> pathlib.Path:
    """The canonical report path for bench *name* (argparse default)."""
    return RESULTS_DIR / f"BENCH_{name}.json"


def write_bench_json(name: str, report: dict,
                     output: pathlib.Path | None = None) -> pathlib.Path:
    """Serialize *report* to *output* (default: the canonical results
    path) and nowhere else; returns the path written."""
    output = pathlib.Path(output) if output is not None \
        else default_output(name)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n",
                      encoding="utf-8")
    return output

"""CLI: ``python -m repro.bench [E1 E2 ...] [--out DIR]`` runs
experiments (all of them by default), prints their tables, then one line
per failed verdict check; exits 1 when any check fails."""

from __future__ import annotations

import argparse
import pathlib
import sys

import repro.bench.experiments  # noqa: F401  (registers everything)
from repro.bench.harness import all_experiments, get_experiment


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    parser.add_argument("ids", nargs="*", metavar="ID")
    parser.add_argument("--out", type=pathlib.Path, metavar="DIR",
                        help="also write each table to DIR/<ID>.txt")
    args = parser.parse_args(argv)
    chosen = ([get_experiment(i) for i in args.ids] if args.ids
              else all_experiments())
    failures = []
    for experiment in chosen:
        result = experiment.runner()
        print(result.render())
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{experiment.experiment_id}.txt").write_text(
                f"claim: {experiment.claim}\n\n" + result.render() + "\n",
                encoding="utf-8")
        failures += [f"FAILED {experiment.experiment_id}: {sentence}"
                     for sentence in experiment.verdict(result)]
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Experiment harness: registration, work counting and report assembly.

Each module under :mod:`repro.bench.experiments` registers one
:class:`Experiment`: an id, the paper claim, a runner and the claim's
verdict.  Runners return :class:`ExperimentResult` — a titled table plus
free-form observations — which is what EXPERIMENTS.md records; the
verdict reads that result and names every check on it that fails.
``python -m repro.bench`` runs them, prints the tables and exits 1 when
a verdict fails.

Nothing here reads a clock.  A runner runs its workload once and reports
what it counts (elements examined, candidates, hashes, messages), often
through :func:`tally`, so every table is a pure function of the code and
``--out`` regenerates the committed tables byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.bench.tables import render_table


@dataclass
class ExperimentResult:
    """One experiment's output."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    observations: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows,
                              title=f"[{self.experiment_id}] {self.title}")]
        for observation in self.observations:
            parts.append(f"  * {observation}")
        return "\n".join(parts)


Verdict = Callable[[ExperimentResult], list[str]]
"""Judges a result: one sentence per failed check, naming the quantity
it read; empty when the claim holds."""


def failed(*checks: tuple[bool, str]) -> list[str]:
    """The sentences of the ``(holds, sentence)`` *checks* that do not
    hold — every one of them, not just the first."""
    return [sentence for holds, sentence in checks if not holds]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    claim: str
    runner: Callable[[], ExperimentResult]
    verdict: Verdict


@dataclass
class Tally:
    """The running total of one :func:`tally`."""

    count: int = 0


@contextmanager
def tally(owner: object, name: str,
          weigh: Callable[[object], int] = lambda result: 1
          ) -> Iterator[Tally]:
    """Count the calls to ``owner.name`` made while the block runs.

    Each call adds ``weigh(result)`` — 1 by default, so the total is a
    call count; ``len`` makes it the number of items the calls returned.
    *owner* is the module or class that defines *name*; the original is
    back in place when the block exits.
    """
    original = vars(owner)[name]
    total = Tally()

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        total.count += weigh(result)
        return result

    setattr(owner, name, counted)
    try:
        yield total
    finally:
        setattr(owner, name, original)


_REGISTRY: dict[str, Experiment] = {}


def register(experiment_id: str, claim: str, verdict: Verdict
             ) -> Callable[[Callable[[], ExperimentResult]],
                           Callable[[], ExperimentResult]]:
    """Decorator: ``@register("E1", "claim...", verdict)`` on a runner."""

    def wrap(runner: Callable[[], ExperimentResult]
             ) -> Callable[[], ExperimentResult]:
        _REGISTRY[experiment_id] = Experiment(experiment_id, claim, runner,
                                              verdict)
        return runner

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    return _REGISTRY[experiment_id]


def all_experiments() -> list[Experiment]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]

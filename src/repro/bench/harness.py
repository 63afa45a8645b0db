"""Experiment harness: timing, registration and report assembly.

Each module under :mod:`repro.bench.experiments` registers one
:class:`Experiment`: an id, the paper claim, a runner and the claim's
verdict.  Runners return :class:`ExperimentResult` — a titled table plus
free-form observations — which is what EXPERIMENTS.md records; the
verdict reads that result and names every check on it that fails.
``python -m repro.bench`` runs them, prints the tables and exits 1 when
a verdict fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bench.tables import render_table


@dataclass
class ExperimentResult:
    """One experiment's output."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    observations: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def render(self) -> str:
        parts = [render_table(self.headers, self.rows,
                              title=f"[{self.experiment_id}] {self.title}")]
        for observation in self.observations:
            parts.append(f"  * {observation}")
        parts.append(f"  (completed in {self.elapsed_seconds:.2f}s)")
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


class Timer:
    """Context-manager stopwatch used inside runners."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start


def time_callable(func: Callable[[], object],
                  repeats: int = 3) -> tuple[float, object]:
    """Best-of-N wall time in seconds, plus the last return value."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


_REGISTRY: dict[str, Experiment] = {}


def register(experiment_id: str, claim: str, verdict: Verdict
             ) -> Callable[[Callable[[], ExperimentResult]],
                           Callable[[], ExperimentResult]]:
    """Decorator: ``@register("E1", "claim...", verdict)`` on a runner."""

    def wrap(runner: Callable[[], ExperimentResult]
             ) -> Callable[[], ExperimentResult]:
        def timed() -> ExperimentResult:
            with Timer() as timer:
                result = runner()
            result.elapsed_seconds = timer.elapsed
            return result

        _REGISTRY[experiment_id] = Experiment(experiment_id, claim, timed,
                                              verdict)
        return timed

    return wrap


def get_experiment(experiment_id: str) -> Experiment:
    return _REGISTRY[experiment_id]


def all_experiments() -> list[Experiment]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]

"""Tests for the benchmark harness and table rendering."""

import pathlib

import pytest

from repro.bench import harness
from repro.bench.__main__ import main
from repro.bench.harness import (
    ExperimentResult,
    Timer,
    failed,
    get_experiment,
    register,
    time_callable,
)
from repro.bench.tables import format_cell, render_table


@pytest.fixture
def registry(monkeypatch):
    """An empty registry, so a test's experiments never join the
    process-wide one."""
    monkeypatch.setattr(harness, "_REGISTRY", {})


def register_unit(verdict):
    @register("T-unit", "a synthetic test experiment", verdict)
    def runner() -> ExperimentResult:
        return ExperimentResult("T-unit", "title", ["c"], [[1]])


class TestTables:
    def test_format_cell_variants(self):
        assert format_cell(0.0) == "0"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(12.345) == "12.3"
        assert format_cell(1234567.0) == "1,234,567"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell("text") == "text"
        assert format_cell(7) == "7"

    def test_render_alignment(self):
        table = render_table(["name", "count"],
                             [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("| name")
        # numeric column right-aligned
        assert lines[2].endswith("|     1 |".replace("5", "5")) or \
            "    1 |" in lines[2]
        assert "   22 |" in lines[3] or "22 |" in lines[3]

    def test_render_with_title(self):
        table = render_table(["x"], [[1]], title="T")
        assert table.splitlines()[0] == "T"

    def test_empty_rows(self):
        table = render_table(["a", "b"], [])
        assert "| a | b |" in table

    def test_deterministic(self):
        rows = [["x", 1.5], ["y", 2.5]]
        assert render_table(["k", "v"], rows) == \
            render_table(["k", "v"], rows)


class TestHarness:
    def test_timer(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0

    def test_time_callable_returns_best_and_value(self):
        calls = []

        def work():
            calls.append(1)
            return "value"

        best, value = time_callable(work, repeats=4)
        assert value == "value"
        assert len(calls) == 4
        assert best >= 0

    def test_register_and_run(self, registry, capsys):
        register_unit(lambda result: [])
        result = get_experiment("T-unit").runner()
        assert result.elapsed_seconds >= 0
        assert "[T-unit]" in result.render()
        assert main(["T-unit"]) == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_failed_checks_fail_the_run_and_are_all_named(
            self, registry, capsys):
        register_unit(lambda result: failed(
            (result.rows == [[1]], "the synthetic row reads 1"),
            (result.rows[0][0] > 1, "the synthetic count exceeds 1"),
            (not result.rows, "the synthetic table is empty")))
        assert main(["T-unit"]) == 1
        output = capsys.readouterr().out
        table, _, verdicts = output.partition("\n\n")
        assert "[T-unit]" in table
        assert verdicts.splitlines() == [
            "FAILED T-unit: the synthetic count exceeds 1",
            "FAILED T-unit: the synthetic table is empty",
        ]

    def test_unknown_experiment_raises(self, registry):
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_result_render_includes_observations(self):
        result = ExperimentResult("X", "t", ["a"], [[1]],
                                  observations=["note one"])
        rendered = result.render()
        assert "* note one" in rendered
        assert "completed in" in rendered


class TestBenchOutput:
    def test_explicit_output_is_the_only_file_written(
            self, tmp_path, monkeypatch):
        from repro.bench import output

        # Anything aimed at the committed results would land here.
        results = tmp_path / "results"
        monkeypatch.setattr(output, "RESULTS_DIR", results)
        target = tmp_path / "elsewhere" / "x.json"
        written = output.write_bench_json("demo", {"k": 1}, output=target)
        assert written == target
        assert target.read_text(encoding="utf-8") == '{\n  "k": 1\n}\n'
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [target]
        # ...and no mirror at the repo root (the pre-PR-20 behaviour,
        # which let a --quick run overwrite a committed full run).
        repo_root = pathlib.Path(output.__file__).resolve().parents[3]
        assert not (repo_root / "BENCH_demo.json").exists()

    def test_default_output_is_the_committed_results_copy(
            self, tmp_path, monkeypatch):
        from repro.bench import output

        monkeypatch.setattr(output, "RESULTS_DIR", tmp_path)
        written = output.write_bench_json("demo", {"k": 1})
        assert written == tmp_path / "BENCH_demo.json"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [written]

"""Tests for the benchmark harness and table rendering."""

import ast
import pathlib

import pytest

from repro.bench import harness
from repro.bench.__main__ import main
from repro.bench.harness import (
    ExperimentResult,
    failed,
    get_experiment,
    register,
    tally,
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


CLOCK_MODULES = {"time", "timeit", "datetime"}
#: Names whose call reads a clock (``time.*``, ``datetime.*.now``).
CLOCK_CALLS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
               "process_time", "process_time_ns", "thread_time",
               "thread_time_ns", "monotonic", "monotonic_ns", "now",
               "utcnow", "today"}


def is_clock_module(name):
    return (name or "").split(".")[0] in CLOCK_MODULES


class TestNoClock:
    def test_no_bench_module_imports_or_calls_a_clock(self):
        """Every experiment counts work, so its table is a function of
        the code: no module under repro.bench may import a clock module
        or call a clock."""
        offences = []
        for path in sorted(pathlib.Path(harness.__file__).parent
                           .rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    found = [alias.name for alias in node.names
                             if is_clock_module(alias.name)]
                elif isinstance(node, ast.ImportFrom):
                    found = ([node.module] if is_clock_module(node.module)
                             else [])
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", ""))
                    found = [f"{name}()"] if name in CLOCK_CALLS else []
                else:
                    continue
                offences += [f"{path.name}:{node.lineno} {name}"
                             for name in found]
        assert offences == []


class TestTally:
    def test_counts_calls_then_restores_the_original(self):
        class Box:
            def items(self, n):
                return list(range(n))

        original = vars(Box)["items"]
        with tally(Box, "items") as calls, \
                tally(Box, "items", len) as returned:
            Box().items(3)
            Box().items(4)
        assert (calls.count, returned.count) == (2, 7)
        assert vars(Box)["items"] is original
        with pytest.raises(ZeroDivisionError), tally(Box, "items"):
            1 / 0
        assert vars(Box)["items"] is original


class TestHarness:
    def test_register_and_run(self, registry, capsys):
        register_unit(lambda result: [])
        result = get_experiment("T-unit").runner()
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
        assert rendered.splitlines()[-1] == "  * note one"


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

"""The examples and the bench CLI are part of the public surface:
run them and check their headline output."""

import contextlib
import io
import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "doctor reads a diagnosis: True" in output
        assert "doctor reads an SSN:     False" in output
        assert "view for dr-grey" in output
        assert "(nothing)" in output  # the visitor

    def test_hospital_records(self):
        output = run_example("hospital_records.py")
        assert output.count("verified=True") == 3
        assert "tamper: authentic=False" in output
        assert output.count("DETECTED") == 3
        assert "missed!" not in output

    def test_service_marketplace(self):
        output = run_example("service_marketplace.py")
        assert "drill-down verified" in output
        assert "21C in Como" in output
        assert "forged answer rejected" in output
        assert "ACCEPTED" not in output

    def test_privacy_mining(self):
        output = run_example("privacy_mining.py")
        assert "REFUSED" in output
        assert "identical to centralized mining: True" in output
        assert "reconstructed" in output

    def test_semantic_web_stack(self):
        output = run_example("semantic_web_stack.py")
        assert "0 triples about report17" in output
        assert "declassified" in output
        assert "residual-risk=0.00" in output
        assert "forged proof (invented rule) rejected" in output


class TestBenchCli:
    def test_single_experiment(self, capsys):
        from repro.bench.__main__ import main
        assert main(["E11"]) == 0
        output = capsys.readouterr().out
        assert "[E11]" in output
        assert "residual risk" in output

    def test_unknown_experiment_raises(self):
        from repro.bench.__main__ import main
        with pytest.raises(KeyError):
            main(["E99"])

    def test_out_regenerates_the_committed_table(self, tmp_path):
        from repro.bench.__main__ import main
        assert main(["E11", "--out", str(tmp_path)]) == 0
        committed = EXAMPLES.parent / "benchmarks" / "results" / "E11.txt"
        assert (tmp_path / "E11.txt").read_bytes() == committed.read_bytes()

    def test_registry_is_complete(self):
        import repro.bench.experiments  # noqa: F401
        from repro.bench.harness import all_experiments
        experiments = all_experiments()
        assert {e.experiment_id for e in experiments} == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E13", "E14", "A1", "A2", "A3", "A4"}
        assert all(callable(e.verdict) for e in experiments)

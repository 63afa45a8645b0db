"""Tests for the ``python -m repro.analysis`` CLI."""

import ast
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.selfcheck import (
    BAD_SOURCE,
    EXPECTED_RULE_IDS,
    run_self_check,
)

CLEAN_FIXTURE = """\
from repro.core.credentials import has_role
from repro.datagen.documents import hospital_schema
from repro.xmlsec.authorx import XmlPolicyBase, xml_grant

SCHEMA = hospital_schema()
POLICIES = XmlPolicyBase([xml_grant(has_role("doctor"),
                                    "/hospital/record")])
"""

FLAWED_FIXTURE = """\
from repro.relational.authorization import (
    AuthorizationManager,
    Privilege,
)

GRANTS = AuthorizationManager()
GRANTS.set_owner("emp", "dba")
GRANTS.import_grant("mallory", "eve", "emp", Privilege.UPDATE)
"""


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(textwrap.dedent(content), encoding="utf-8")
    return str(path)


class TestFixtureAnalysis:
    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", CLEAN_FIXTURE)
        assert main([path]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_flawed_fixture_exits_nonzero(self, tmp_path, capsys):
        path = write(tmp_path, "flawed.py", FLAWED_FIXTURE)
        assert main([path]) == 1
        assert "REL-DANGLING" in capsys.readouterr().out

    def test_directory_scan_collects_every_fixture(self, tmp_path,
                                                   capsys):
        write(tmp_path, "clean.py", CLEAN_FIXTURE)
        write(tmp_path, "flawed.py", FLAWED_FIXTURE)
        write(tmp_path, "_private.py", "raise RuntimeError('skipped')")
        assert main([str(tmp_path)]) == 1
        assert "REL-DANGLING" in capsys.readouterr().out

    def test_warning_threshold(self, tmp_path, capsys):
        # A two-hop option chain is WARNING-severity only.
        path = write(tmp_path, "esc.py", """\
        from repro.relational.authorization import (
            AuthorizationManager,
            Privilege,
        )

        GRANTS = AuthorizationManager()
        GRANTS.set_owner("emp", "dba")
        GRANTS.grant("dba", "alice", "emp", Privilege.SELECT,
                     with_grant_option=True)
        GRANTS.grant("alice", "bob", "emp", Privilege.SELECT,
                     with_grant_option=True)
        """)
        assert main([path]) == 0
        capsys.readouterr()
        assert main(["--max-severity", "warning", path]) == 1

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "flawed.py", FLAWED_FIXTURE)
        assert main(["--json", path]) == 1
        decoded = json.loads(capsys.readouterr().out)
        assert decoded[0]["rule_id"] == "REL-DANGLING"
        assert decoded[0]["severity"] == "error"


class TestLintMode:
    def test_seeded_violation_fails_the_build(self, tmp_path, capsys):
        # The acceptance gate: introducing a lint violation in a
        # fixture must flip the CLI to a failing exit code.
        path = write(tmp_path, "seeded.py", BAD_SOURCE)
        assert main(["--lint", path]) == 1
        out = capsys.readouterr().out
        for rule_id in ("LINT-MUTDEF", "LINT-BAREEXC", "LINT-HASH",
                        "LINT-CHECKRET"):
            assert rule_id in out

    def test_clean_tree_passes(self, tmp_path, capsys):
        write(tmp_path, "ok.py", "def f(a=None):\n    return a\n")
        assert main(["--lint", str(tmp_path)]) == 0


class TestSelfCheck:
    def test_cli_self_check_passes(self, capsys):
        assert main(["--self-check"]) == 0
        assert "self-check OK" in capsys.readouterr().out

    def test_every_expected_rule_fires(self):
        result = run_self_check()
        assert result.ok
        assert EXPECTED_RULE_IDS <= result.fired


class TestMisc:
    def test_rules_catalog_lists_every_rule(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_missing_path_is_usage_error_not_clean_pass(self, capsys):
        # A typo'd CI path must fail loudly, not report "no findings".
        with pytest.raises(SystemExit) as excinfo:
            main(["--lint", "/no/such/tree"])
        assert excinfo.value.code == 2
        assert "/no/such/tree" in capsys.readouterr().err


def test_fresh_rules_catalog_lists_every_registered_rule():
    # In a fresh interpreter, so no earlier test's imports can register
    # a rule the CLI itself would not load.
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    declared = set()
    for path in (src / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "REGISTRY"):
                declared.add(node.args[0].value)
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--rules"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert result.returncode == 0, result.stderr
    listed = {line.split()[0] for line in result.stdout.splitlines()}
    assert len(declared) >= 26
    assert listed == declared

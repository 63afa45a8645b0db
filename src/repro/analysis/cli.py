"""``python -m repro.analysis`` — the pre-deployment verification gate.

Three modes:

* **fixture analysis** (default): each positional path is a Python file
  (or directory of files) executed as a fixture module; every
  recognizable security artifact bound at module level — an
  :class:`XmlPolicyBase` (paired with a :class:`Schema` and optional
  subjects), an :class:`AuthorizationManager`, a
  :class:`PrivacyConstraintSet` (optionally with a ``NEED_TO_KNOW``
  set or a :class:`PrivacyController`), a :class:`SecureRdfStore` —
  is analyzed by the matching rule domain;
* ``--lint PATH``: run the AST code lint over a source tree;
* ``--compile-report PATH``: compile every policy base bound in a
  fixture module through :mod:`repro.compile`, run the static
  equivalence verification, and print per-policy-set compilation
  stats (path classes, DFA states, profile classes, table size,
  verification verdict); exits non-zero on any unexplained
  divergence;
* ``--self-check``: prove every registered rule fires on its seeded
  defect fixture.

Exit status is non-zero when any ERROR-severity finding (or lint
finding) is reported, which is what lets CI use this as a gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import runpy
import sys

from repro.analysis.channels import analyze_privacy
from repro.analysis.codelint import lint_paths
from repro.analysis.findings import REGISTRY, Report, Severity
from repro.analysis.grants import analyze_grants
from repro.analysis.mlsrdf import analyze_rdf
from repro.analysis.selfcheck import run_self_check
from repro.analysis.xmlpolicy import analyze_xml_policies
from repro.compile.table import compile_policy_base
from repro.compile.verify import verify_compiled
from repro.compile.xmltable import compile_xml_policy_base, verify_label_table
from repro.core.policy import PolicyBase
from repro.privacy.constraints import PrivacyConstraintSet
from repro.privacy.controller import PrivacyController
from repro.rdfdb.security import SecureRdfStore
from repro.relational.authorization import AuthorizationManager
from repro.xmldb.dtd import Schema
from repro.xmlsec.authorx import XmlPolicyBase


def analyze_fixture_globals(bindings: dict[str, object]) -> Report:
    """Analyze every recognizable artifact in one module's globals."""
    report = Report()
    schemas = [v for v in bindings.values() if isinstance(v, Schema)]
    subjects = bindings.get("SUBJECTS")
    for value in bindings.values():
        if isinstance(value, XmlPolicyBase) and schemas:
            report.extend(analyze_xml_policies(value, schemas[0],
                                               subjects))
        elif isinstance(value, AuthorizationManager):
            report.extend(analyze_grants(value))
        elif isinstance(value, PrivacyConstraintSet):
            need = bindings.get("NEED_TO_KNOW")
            if not isinstance(need, (set, frozenset, list, tuple)):
                controllers = [v for v in bindings.values()
                               if isinstance(v, PrivacyController)]
                need = (controllers[0].need_to_know if controllers
                        else ())
            report.extend(analyze_privacy(value, need))
        elif isinstance(value, SecureRdfStore):
            report.extend(analyze_rdf(value))
    return report


def analyze_fixture_paths(paths: list[str]) -> Report:
    report = Report()
    for entry in paths:
        path = pathlib.Path(entry)
        if path.is_dir():
            files = sorted(p for p in path.glob("*.py")
                           if not p.name.startswith("_"))
        else:
            files = [path]
        for file in files:
            bindings = runpy.run_path(str(file))
            report.extend(analyze_fixture_globals(bindings))
    return report


def compile_report_for_globals(bindings: dict[str, object]
                               ) -> list[dict]:
    """Compile + verify every policy base in one module's globals."""
    entries: list[dict] = []
    schemas = [v for v in bindings.values() if isinstance(v, Schema)]
    subjects = bindings.get("SUBJECTS")
    probes = subjects if isinstance(subjects, (list, tuple)) else None
    for name, value in bindings.items():
        if isinstance(value, PolicyBase):
            artifact = compile_policy_base(value)
            verification = verify_compiled(artifact, value,
                                           probes=probes)
            entries.append({
                "artifact": name,
                "kind": "core",
                "digest": artifact.digest,
                "stats": dataclasses.asdict(artifact.stats()),
                "verification": verification.to_dict(),
            })
        elif isinstance(value, XmlPolicyBase) and schemas:
            table = compile_xml_policy_base(value, schemas[0],
                                            probes=probes)
            verification = verify_label_table(table, value,
                                              probes=probes)
            entries.append({
                "artifact": name,
                "kind": "xml",
                "digest": verification.digest,
                "stats": dataclasses.asdict(table.stats()),
                "verification": verification.to_dict(),
            })
    return entries


def _render_compile_entry(entry: dict) -> str:
    stats = entry["stats"]
    verification = entry["verification"]
    if entry["kind"] == "core":
        shape = (f"{stats['path_classes']} path class(es), "
                 f"{stats['dfa_states']} DFA state(s), "
                 f"{stats['residual_policies']} residual, "
                 f"{stats['subject_predicates']} subject predicate(s)")
    else:
        shape = (f"{stats['eager_states']} label state(s), "
                 f"{stats['dynamic_policies']} dynamic, "
                 f"doc {stats['doc_id']!r}")
    return (f"{entry['artifact']} [{entry['kind']}]: "
            f"{stats['policies']} policy(ies), {shape}, "
            f"{verification['cells']} cell(s) checked, "
            f"{verification['explained']} explained / "
            f"{verification['unexplained']} unexplained -> "
            f"{verification['verdict']} "
            f"(digest {entry['digest'][:12]})")


def _run_compile_report(paths: list[str], as_json: bool) -> int:
    entries: list[dict] = []
    for entry in paths:
        path = pathlib.Path(entry)
        if path.is_dir():
            files = sorted(p for p in path.glob("*.py")
                           if not p.name.startswith("_"))
        else:
            files = [path]
        for file in files:
            bindings = runpy.run_path(str(file))
            entries.extend(compile_report_for_globals(bindings))
    if as_json:
        print(json.dumps(entries, indent=2))
    else:
        for item in entries:
            print(_render_compile_entry(item))
    unexplained = sum(e["verification"]["unexplained"]
                      for e in entries)
    if unexplained:
        print(f"compile-report FAILED: {unexplained} unexplained "
              f"divergence(s)", file=sys.stderr)
        return 1
    if not entries:
        print("compile-report: no policy bases found", file=sys.stderr)
        return 2
    if not as_json:
        print(f"compile-report OK: {len(entries)} artifact(s) "
              f"verified")
    return 0


def _print_report(report: Report, as_json: bool) -> None:
    print(report.to_json() if as_json else report.render_text())


def _run_self_check(as_json: bool) -> int:
    result = run_self_check()
    _print_report(result.report, as_json)
    if not as_json:
        fired = ", ".join(sorted(result.fired & result.expected))
        print(f"self-check: {len(result.expected)} rule(s) expected; "
              f"fired: {fired}")
    if result.missing:
        print("self-check FAILED; silent rule(s): "
              + ", ".join(sorted(result.missing)), file=sys.stderr)
        return 1
    print("self-check OK: every registered rule detects its seeded "
          "defect")
    return 0


def _print_rules() -> int:
    for rule in sorted(REGISTRY.rules(), key=lambda r: (r.domain,
                                                        r.rule_id)):
        print(f"{rule.rule_id:15s} {str(rule.severity):7s} "
              f"[{rule.domain}] {rule.title}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static security-policy analysis and code lint.")
    parser.add_argument("paths", nargs="*",
                        help="fixture modules (or directories) to analyze")
    parser.add_argument("--lint", metavar="PATH", action="append",
                        default=[],
                        help="lint a source file or tree instead")
    parser.add_argument("--compile-report", metavar="PATH",
                        action="append", default=[],
                        help="compile + statically verify the policy "
                             "bases of a fixture module")
    parser.add_argument("--self-check", action="store_true",
                        help="verify every rule fires on seeded defects")
    parser.add_argument("--rules", action="store_true",
                        help="list the rule catalog and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--max-severity", choices=["info", "warning",
                                                   "error"],
                        default="error",
                        help="lowest severity that fails the run "
                             "(default: error)")
    args = parser.parse_args(argv)

    if args.rules:
        return _print_rules()
    if args.self_check:
        return _run_self_check(args.json)

    # A typo'd path must not pass the gate as "no findings".
    missing = [p for p in args.paths + args.lint + args.compile_report
               if not pathlib.Path(p).exists()]
    if missing:
        parser.error("no such file or directory: "
                     + ", ".join(missing))

    if args.compile_report:
        return _run_compile_report(args.compile_report, args.json)

    report = Report()
    if args.lint:
        report.extend(lint_paths(args.lint))
    if args.paths:
        report.extend(analyze_fixture_paths(args.paths))
    if not args.lint and not args.paths:
        parser.print_usage()
        return 2
    _print_report(report, args.json)
    threshold = Severity[args.max_severity.upper()]
    failing = [f for f in report if f.severity >= threshold]
    return 1 if failing else 0

#!/usr/bin/env python
"""Benchmarks for the ``repro.compile`` policy compiler (ablation A9).

Four sections; the two the acceptance gate cares about assert a
byte-identity (or proof) oracle before reporting a number:

* ``compiled_throughput`` — a warm mixed workload of distinct
  ``(subject, action, path)`` triples served by an
  :class:`~repro.snap.policy.EpochalPolicyEngine` (the compiled epoch
  table) versus the cache-free interpreter's
  :meth:`~repro.core.evaluator.PolicyEvaluator.decide_batch`.  Oracle:
  every decision byte-identical.  Gate: ≥10x full, ≥3x ``--quick``;
* ``static_verification`` — compile + statically verify many random
  policy bases.  Oracle/gate: zero unexplained cells across every seed;
* ``recompilation`` — cold-compile latency by base size, plus the
  digest-determinism oracle (same base, same digest);
* ``xml_label_table`` — compiled per-profile label automata versus the
  Author-X interpreter over the hospital corpus.  Oracle: identical
  ``(access, deciding policy)`` per element; reports the speedup.

``--quick`` shrinks workloads for the CI perf-smoke job, which fails
closed on either oracle or gate.  Writes ``BENCH_compile.json`` to
``benchmarks/results/`` (or ``--output``).
"""

from __future__ import annotations

import argparse
import pathlib
import platform
import random
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
TESTS = pathlib.Path(__file__).resolve().parent.parent
if str(TESTS) not in sys.path:
    sys.path.insert(0, str(TESTS))

from repro.bench.output import (  # noqa: E402
    default_output,
    write_bench_json,
)
from repro.compile import (  # noqa: E402
    compile_policy_base,
    compile_xml_policy_base,
    verify_compiled,
)
from repro.core.evaluator import PolicyEvaluator  # noqa: E402
from repro.core.policy import Action, PolicyBase  # noqa: E402
from repro.datagen.documents import (  # noqa: E402
    hospital_documents, hospital_schema)
from repro.datagen.population import (  # noqa: E402
    generate_population, named_cast)
from repro.snap.policy import EpochalPolicyEngine  # noqa: E402
from repro.xmlsec.authorx import XmlPolicyBase  # noqa: E402

from tests.scale.workloads import HEADS, random_policies  # noqa: E402

RESULTS_OUTPUT = default_output("compile")

THROUGHPUT_GATES = {"quick": 3.0, "full": 10.0}
VERIFY_SEED_COUNTS = {"quick": 25, "full": 120}


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# -- 1. warm mixed-workload throughput ----------------------------------

def _workload(rng: random.Random, subject_count: int,
              path_count: int) -> list[tuple]:
    """Thousands of distinct triples: the interpreter evaluates each,
    the table's (path class x profile) keys stay tiny."""
    directory = generate_population(subject_count, seed=7)
    subjects = [directory.get(f"user{i:05d}")
                for i in range(subject_count)]
    paths = []
    for index in range(path_count):
        head = (HEADS + ("other", "r1"))[index % (len(HEADS) + 2)]
        paths.append(rng.choice((
            f"{head}/records/r{index + 1}/chart",
            f"{head}/records/r{index + 1}",
            f"{head}/summary",
            head,
        )))
    return [(subject, Action.READ if (si + pi) % 2 else Action.WRITE,
             path, None)
            for si, subject in enumerate(subjects)
            for pi, path in enumerate(paths)]


def bench_compiled_throughput(quick: bool) -> tuple[dict, bool]:
    policy_count = 24 if quick else 96
    subject_count = 90 if quick else 150
    path_count = 50 if quick else 80
    passes = 1 if quick else 2

    rng = random.Random(20260808)
    policies = random_policies(rng, policy_count)
    base = PolicyBase(policies)

    interpreter = PolicyEvaluator(base)
    compiled = EpochalPolicyEngine(policies)
    requests = _workload(rng, subject_count, path_count)

    # Warm both paths (fills the compiled table's touched cells), then
    # time steady state.
    warm_interpreted = interpreter.decide_batch(requests)
    warm_compiled = compiled.decide_batch(requests)
    oracle = warm_interpreted == warm_compiled

    interp_s, _ = timed(lambda: [interpreter.decide_batch(requests)
                                 for _ in range(passes)])
    compiled_s, _ = timed(lambda: [compiled.decide_batch(requests)
                                   for _ in range(passes)])

    total = passes * len(requests)
    speedup = interp_s / compiled_s
    gate = THROUGHPUT_GATES["quick" if quick else "full"]
    target_met = speedup >= gate
    stats = compiled.current().table.stats()
    return {
        "policies": policy_count,
        "distinct_triples": len(requests),
        "passes": passes,
        "interpreter_s": round(interp_s, 4),
        "interpreter_decisions_per_s": round(total / interp_s),
        "compiled_s": round(compiled_s, 4),
        "compiled_decisions_per_s": round(total / compiled_s),
        "speedup": round(speedup, 1),
        "speedup_gate": gate,
        "path_classes": stats.path_classes,
        "cells_filled": stats.cells_filled,
        "oracle_decisions_byte_identical": oracle,
        "oracle_speedup_target_met": target_met,
    }, oracle and target_met


# -- 2. static equivalence verification ---------------------------------

def bench_static_verification(quick: bool) -> tuple[dict, bool]:
    seed_count = VERIFY_SEED_COUNTS["quick" if quick else "full"]
    rng = random.Random(97)
    cells = disagreements = unexplained = 0
    proved = 0
    elapsed, _ = timed(lambda: None)
    start = time.perf_counter()
    for _ in range(seed_count):
        base = PolicyBase(random_policies(rng, rng.randrange(1, 20)))
        verification = verify_compiled(compile_policy_base(base), base)
        cells += verification.cells
        disagreements += len(verification.disagreements)
        unexplained += verification.unexplained
        proved += verification.verdict == "proved"
    elapsed = time.perf_counter() - start
    ok = unexplained == 0 and proved == seed_count
    return {
        "policy_set_seeds": seed_count,
        "cells_checked": cells,
        "disagreements": disagreements,
        "explained": disagreements - unexplained,
        "unexplained": unexplained,
        "proved": proved,
        "verification_s": round(elapsed, 4),
        "cells_per_s": round(cells / elapsed),
        "oracle_zero_unexplained": ok,
    }, ok


# -- 3. recompilation latency -------------------------------------------

def bench_recompilation(quick: bool) -> tuple[dict, bool]:
    sizes = (10, 40) if quick else (10, 40, 120)
    rng = random.Random(5)
    rows = []
    deterministic = True
    for size in sizes:
        base = PolicyBase(random_policies(rng, size))
        cold_s, artifact = timed(lambda b=base: compile_policy_base(b))
        again_s, again = timed(lambda b=base: compile_policy_base(b))
        deterministic = deterministic and artifact.digest == again.digest
        rows.append({
            "policies": size,
            "compile_ms": round(cold_s * 1000, 2),
            "recompile_ms": round(again_s * 1000, 2),
            "dfa_states": artifact.stats().dfa_states,
            "digest": artifact.digest[:12],
        })
    return {
        "rows": rows,
        "oracle_digest_deterministic": deterministic,
    }, deterministic


# -- 4. compiled XML label tables ---------------------------------------

def bench_xml_label_table(quick: bool) -> tuple[dict, bool]:
    from repro.core.credentials import anyone, has_role
    from repro.xmlsec.authorx import (
        XmlPropagation, xml_deny, xml_grant)

    static_base = XmlPolicyBase([
        xml_grant(has_role("doctor"), "//record"),
        xml_deny(anyone(), "//record/ssn"),
        xml_grant(has_role("nurse"), "/hospital/record/vitals",
                  propagation=XmlPropagation.ONE_LEVEL),
        xml_grant(has_role("administrator"), "/hospital/billing",
                  propagation=XmlPropagation.LOCAL),
    ])
    schema = hospital_schema()
    documents = hospital_documents(2 if quick else 6,
                                   6 if quick else 20, seed=13)
    cast = named_cast()
    subjects = [cast.doctor, cast.nurse, cast.researcher,
                cast.administrator, cast.stranger]
    table = compile_xml_policy_base(static_base, schema,
                                    probes=subjects)

    def keys(labels):
        return sorted(
            (node_id, label.access,
             None if label.deciding_policy is None
             else label.deciding_policy.policy_id)
            for node_id, label in labels.items())

    def run_interpreter():
        return [keys(static_base.label_document(subject, doc_id,
                                                document,
                                                use_cache=False))
                for doc_id, document in documents.items()
                for subject in subjects]

    def run_compiled():
        return [keys(table.label_document(subject, document))
                for doc_id, document in documents.items()
                for subject in subjects]

    run_compiled()  # warm the automata
    interp_s, interpreted = timed(run_interpreter)
    compiled_s, compiled = timed(run_compiled)
    oracle = interpreted == compiled
    labelings = len(documents) * len(subjects)
    return {
        "documents": len(documents),
        "subjects": len(subjects),
        "labelings": labelings,
        "interpreter_s": round(interp_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(interp_s / compiled_s, 1),
        "automaton_states": table.stats().states,
        "oracle_labels_identical": oracle,
    }, oracle


SECTIONS = (
    ("compiled_throughput", bench_compiled_throughput),
    ("static_verification", bench_static_verification),
    ("recompilation", bench_recompilation),
    ("xml_label_table", bench_xml_label_table),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for the CI smoke job")
    parser.add_argument("--output", type=pathlib.Path,
                        default=RESULTS_OUTPUT,
                        help=f"JSON report path (default {RESULTS_OUTPUT})")
    args = parser.parse_args(argv)

    report: dict = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "oracles": {},
    }
    failures = []
    for name, runner in SECTIONS:
        section, ok = runner(args.quick)
        report[name] = section
        report["oracles"][name] = ok
        if not ok:
            failures.append(name)
        headline = {k: v for k, v in section.items()
                    if k in ("speedup", "speedup_gate", "unexplained")}
        print(f"{name}: {'ok' if ok else 'ORACLE/GATE FAILED'} {headline}")

    written = write_bench_json("compile", report, output=args.output)
    print(f"wrote {written}")
    if failures:
        print(f"oracle or gate failure in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

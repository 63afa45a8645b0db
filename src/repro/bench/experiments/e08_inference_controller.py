"""E8 — The inference controller ([13, 14], §3.3).

Claim: the inference controller "is one solution to achieve some level
of privacy" — it must stop query *sequences* that jointly complete a
private association, which per-query (stateless) enforcement misses.

Operationalization: medical database; an attacker issues the classic
two-step linkage sequence per target row (quasi-identifiers first, then
diagnosis).  Sweep constraint count; report completed linkages under
(a) no controller, (b) stateless checks, (c) history-tracking controller,
plus the size of the tracking controller's ledger against the rows it
released.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, failed, register
from repro.core.errors import InferenceViolation
from repro.datagen.tabular import load_patients
from repro.privacy.constraints import PrivacyConstraintSet, PrivacyLevel
from repro.privacy.controller import PrivacyController
from repro.privacy.inference import InferenceController
from repro.relational.authorization import Privilege
from repro.relational.database import Database


def _attack(select, row_ids) -> tuple[int, int, int]:
    """Run the two-step linkage per row; return (linkages, refusals,
    rows released)."""
    linkages = 0
    refusals = 0
    released = 0
    for row_id in row_ids:
        seen: dict[str, object] = {}
        for columns in (["id", "zip", "age"], ["id", "diagnosis"]):
            try:
                result = select(columns,
                                lambda r, rid=row_id: r["id"] == rid)
            except InferenceViolation:
                refusals += 1
                continue
            released += len(result.rows)
            for row in result.rows:
                record = dict(zip(result.columns, row))
                seen.update({k: v for k, v in record.items()
                             if v is not None})
        if all(seen.get(c) is not None
               for c in ("zip", "age", "diagnosis")):
            linkages += 1
    return linkages, refusals, released


def verdict(result: ExperimentResult) -> list[str]:
    return failed(
        (all(row[1] == row[2] == 40 for row in result.rows),
         "without history tracking the attack links all 40 targets"),
        (all(row[3] == 0 for row in result.rows),
         "with history tracking it links none"),
        (all(row[4] == 40 for row in result.rows),
         "history tracking refuses every second step (40 refusals)"),
        (len({row[5] for row in result.rows}) == 1
         and all(row[5] <= row[6] for row in result.rows),
         "the tracked ledger is the same size at every constraint count "
         "and holds no more entries than rows released"),
    )


@register("E8", "query-history inference control blocks linkage "
               "sequences that per-query checks miss ([13,14])", verdict)
def run() -> ExperimentResult:
    rows = []
    for extra_constraints in (0, 10, 40):
        database = Database()
        load_patients(database, 300, seed=15)
        database.authorization.grant("dba", "attacker", "patients",
                                     Privilege.SELECT)
        constraints = PrivacyConstraintSet()
        constraints.protect_together(
            "patients", ["zip", "age", "diagnosis"],
            PrivacyLevel.PRIVATE, name="linkage")
        # Padding constraints, which must not grow the ledger.
        for index in range(extra_constraints):
            constraints.protect(
                "patients", "salary", PrivacyLevel.PUBLIC,
                name=f"pad-{index}",
                condition=lambda row: False)
        controller = PrivacyController(database, constraints)
        row_ids = list(range(1, 41))

        # (a) no controller: raw database access.
        def raw(columns, where):
            return database.select("attacker", "patients", columns,
                                   where)

        linkages_raw, _, _ = _attack(raw, row_ids)

        # (b) stateless privacy checks only.
        stateless = InferenceController(controller,
                                        track_history=False)
        linkages_stateless, _, _ = _attack(
            lambda c, w: stateless.select("attacker", "patients", c, w),
            row_ids)

        # (c) full history tracking.
        tracked = InferenceController(controller, track_history=True)
        linkages_tracked, refusals_tracked, released = _attack(
            lambda c, w: tracked.select("attacker", "patients", c, w),
            row_ids)
        rows.append([
            1 + extra_constraints,
            linkages_raw, linkages_stateless, linkages_tracked,
            refusals_tracked, tracked.history_size("attacker"), released,
        ])
    observations = [
        "without history tracking the two-step attack links every "
        "target; the inference controller blocks all of them",
        "the ledger holds one entry per released row whatever the "
        "constraint count — the history, not the constraints, is what "
        "tracking stores",
    ]
    return ExperimentResult(
        "E8", "Inference controller: linkages completed by a two-step "
              "attack (40 targets)",
        ["constraints", "raw linkages", "stateless linkages",
         "tracked linkages", "refusals", "ledger entries",
         "rows released"],
        rows, observations)

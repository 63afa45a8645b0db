"""The WAL chaos harness: seeded power loss, one replay oracle.

Driven by the kill-and-recover battery (``tests/faults/test_wal_chaos.py``):
run a fixed grouped workload against a
:class:`~repro.wal.durable.DurableXmlStore` over the :class:`MemVfs`
power-loss model, cut the power at a seeded point, recover, and demand
one of exactly two outcomes:

* **byte-identical** — the recovered store's state digest equals the
  digest of replaying the *durable record set* against a fresh inner
  store, and every acknowledged group is in that set (durability: an
  ack means the record survives; an unacked record *may* survive).
  One group is one record, so the reference replays whole groups: a
  matching digest means the recovered state is a **group boundary** —
  never part of a transaction;
* **typed** — recovery refuses with :class:`~repro.core.errors.WalCorrupt`
  because the damage cannot be explained as a torn tail.  Reserved for
  the corrupt-frame overlay; silent truncation of acknowledged data is
  never acceptable.

Each seed overlays one of three adversarial scenarios (``seed % 3``):

0. **torn tail** — extra transactions are applied and appended but the
   power fails between ``write()`` and ``fsync()``, keeping a seed-chosen
   byte prefix of the pending tail (possibly slicing a frame, possibly
   a freshly-rotated segment's header);
1. **corrupt frame** — a ``wal`` CORRUPT fault rots one byte of an
   *interior* synced batch.  Later batches always follow, so the
   bounded forward resync proves the damage sits in front of live data
   and recovery must fail typed — a corrupt *final* batch would be
   indistinguishable from a torn tail, which is exactly why the overlay
   never schedules one;
2. **device fault** — a CRASH/DROP fault fails a batch mid-run: every
   ticket in it gets a typed error, the pipeline seals, and recovery
   of the acknowledged prefix must still be byte-identical.

Random DELAY noise (charged to the shared fault clock) rides on top of
every scenario.  Everything is deterministic: same seed, same plan,
same trace, same digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import WalCorrupt, WalError
from repro.faults.clock import FaultClock
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.snap.xmlstore import SnapshotXmlDatabase
from repro.wal.durable import DurableXmlStore, encode_ops
from repro.wal.format import encode_frame
from repro.wal.pipeline import SITE
from repro.wal.replay import recover as scan_logs

#: Small segments so checkpoint truncation and mid-run rotation both
#: actually happen inside a 9-group workload.
SEGMENT_BYTES = 512
GROUPS = 9
#: Scenario names by ``seed % 3``.
SCENARIOS = ("torn-tail", "corrupt-frame", "device-fault")


def chaos_groups() -> list[list[tuple[str, tuple]]]:
    """The deterministic workload: 9 groups.  A settled group is one
    record and one batch sync, which is what lets overlays name batch
    indices."""
    groups: list[list[tuple[str, tuple]]] = [[
        ("create_collection", ("alpha",)),
        ("create_collection", ("beta",)),
        ("create_collection", ("gamma",)),
    ]]
    for index in range(1, GROUPS):
        doc = f"d{index}"
        other = "beta" if index % 2 else "gamma"
        ops: list[tuple[str, tuple]] = [
            ("insert", ("alpha", doc,
                        f'<item n="{index}"><v>alpha-{index}</v></item>')),
            ("insert", (other, doc,
                        f'<item n="{index}"><v>{other}-{index}</v></item>')),
        ]
        if index >= 3:
            prev = f"d{index - 2}"
            if index % 3 == 0:
                ops.append(("delete", ("alpha", prev)))
            else:
                ops.append(("replace", ("alpha", prev,
                                        f'<item n="{index}">'
                                        f'<v>rev-{index}</v></item>')))
        else:
            ops.append(("replace", ("alpha", doc,
                                    f'<item n="{index}">'
                                    f'<v>alpha-{index}b</v></item>')))
        groups.append(ops)
    return groups


def scenario_plan(seed: int) -> tuple[FaultPlan, str]:
    """Seeded DELAY noise plus the scenario overlay for *seed*."""
    plan = FaultPlan()
    rng = random.Random(seed * 7919 + 13)
    for op_index in range(GROUPS + 2):
        if rng.random() < 0.15:
            plan.add(SITE, op_index,
                     FaultEvent(FaultKind.DELAY,
                                magnitude=1 + rng.randrange(3)))
    scenario = SCENARIOS[seed % 3]
    if scenario == "corrupt-frame":
        # Interior batch only: groups 3-5 of 9, so at least three later
        # batches follow and resync sees live data past the damage (a
        # corrupt FINAL batch would read as a torn tail).
        plan.add(SITE, 3 + (seed // 3) % 3, FaultKind.CORRUPT)
    elif scenario == "device-fault":
        kind = FaultKind.CRASH if (seed // 12) % 2 else FaultKind.DROP
        plan.add(SITE, 4 + (seed // 3) % 4, FaultEvent(kind))
    return plan, scenario


@dataclass(frozen=True)
class ChaosResult:
    """One seed's outcome, comparable across runs (determinism check)."""

    seed: int
    scenario: str
    outcome: str                 # "identical" | "typed"
    acked: int                   # groups acknowledged before the crash
    durable: int                 # records in the recovered set
    checkpoint_lsn: int
    truncated: int               # torn tails cut during recovery
    digest: str | None
    digest_matches: bool
    acked_durable: bool          # every acked LSN is in the durable set
    revived: bool                # recovered store accepts new writes
    error: str | None
    trace: tuple

    @property
    def expected_outcome(self) -> str:
        return ("typed" if self.scenario == "corrupt-frame"
                else "identical")

    @property
    def ok(self) -> bool:
        if self.outcome != self.expected_outcome:
            return False
        if self.outcome == "typed":
            return True
        return self.digest_matches and self.acked_durable and self.revived


def _reference_digest(lsn_ops: dict[int, list[tuple[str, tuple]]],
                      lsns: list[int]) -> str:
    """Replay exactly the groups at *lsns* (LSN order), each whole,
    against a fresh inner store."""
    reference = SnapshotXmlDatabase()
    for lsn in sorted(lsns):
        for op, args in lsn_ops[lsn]:
            getattr(reference, op)(*args)
    return DurableXmlStore._digest_of(reference.freeze())


def run_chaos(seed: int) -> ChaosResult:
    """One chaos run: grouped workload, seeded power loss, recovery."""
    from repro.wal.vfs import MemVfs

    vfs = MemVfs()
    store = DurableXmlStore(
        SnapshotXmlDatabase(), vfs, durability="fsync",
        segment_bytes=SEGMENT_BYTES, max_batch=64)
    plan, scenario = scenario_plan(seed)
    store.pipeline.injector = FaultInjector(plan, FaultClock(), seed=seed)

    rng = random.Random(seed * 104729 + 7)
    lsn_ops: dict[int, list[tuple[str, tuple]]] = {}
    acked: set[int] = set()
    trace: list[tuple] = []
    for group_index, ops in enumerate(chaos_groups()):
        before = store.wal.last_lsn
        failure = None
        try:
            with store.group():
                for op, args in ops:
                    getattr(store, op)(*args)
        except WalError as exc:
            failure = exc
        # One group, one record, one LSN (none if it was refused).
        lsn = store.wal.last_lsn
        if lsn > before:
            lsn_ops[lsn] = ops
        if failure is not None:
            trace.append((group_index,
                          f"failed:{type(failure).__name__}"))
            continue
        acked.add(lsn)
        trace.append((group_index, "acked"))
        if group_index == 2 and seed % 2 == 0:
            store.checkpoint()
            trace.append((group_index, "checkpoint"))

    keep_partial: dict[str, int] = {}
    if scenario == "torn-tail":
        # Apply + append WITHOUT sync: the crash lands between write()
        # and fsync(), keeping a seed-chosen prefix of the pending tail.
        log = store.wal
        for extra in range(1 + seed % 2):
            ops = [("insert", ("alpha", f"x{extra}{part}",
                               f'<item><v>extra-{seed}-{extra}</v></item>'))
                   for part in "ab"]
            for op, args in ops:
                getattr(store.inner, op)(*args)
            lsn = log.allocate()
            payload = encode_ops([(op, args, {}) for op, args in ops])
            log.append_encoded(encode_frame(lsn, payload), lsn, 1)
            lsn_ops[lsn] = ops
        tail = log.tail_name
        pending = vfs.size(tail) - vfs.durable_size(tail)
        keep_partial[tail] = rng.randrange(pending + 1)
        trace.append(("torn", keep_partial[tail], pending))

    vfs.crash(keep_partial=keep_partial)

    try:
        scan = scan_logs(vfs, apply_truncation=False)
        recovered, report = DurableXmlStore.recover(
            vfs, segment_bytes=SEGMENT_BYTES)
    except WalCorrupt as exc:
        return ChaosResult(
            seed=seed, scenario=scenario, outcome="typed",
            acked=len(acked), durable=0, checkpoint_lsn=0, truncated=0,
            digest=None, digest_matches=False, acked_durable=False,
            revived=False, error=str(exc), trace=tuple(trace))

    durable_lsns = (
        [lsn for lsn in lsn_ops if lsn <= report.checkpoint_lsn]
        + [lsn for lsn, _ in scan.records
           if lsn > report.checkpoint_lsn])
    digest = recovered.state_digest()
    digest_matches = digest == _reference_digest(lsn_ops, durable_lsns)
    acked_durable = acked.issubset(durable_lsns)
    recovered.insert("alpha", "post-recovery",
                     "<item><v>revived</v></item>")
    revived = recovered.wal.last_synced == recovered.wal.last_lsn
    recovered.close()
    return ChaosResult(
        seed=seed, scenario=scenario, outcome="identical",
        acked=len(acked), durable=len(durable_lsns),
        checkpoint_lsn=report.checkpoint_lsn,
        truncated=len(report.truncated), digest=digest,
        digest_matches=digest_matches, acked_durable=acked_durable,
        revived=revived, error=None, trace=tuple(trace))

"""The replica chaos harness: seeded havoc, one convergence oracle.

Driven by the test battery (``tests/faults/test_replica_chaos.py``):
run a fixed workload against a
:class:`~repro.replica.group.ReplicaGroup` under a seeded
:class:`~repro.faults.plan.FaultPlan`, retrying writes through
failover, then let anti-entropy run and require the group to converge
to the **byte-identical fault-free digest** — same final state as if
no fault had ever fired.

Each seed overlays one of three adversarial scenarios on top of the
random plan (``seed % 3`` selects):

0. **kill the primary mid-publish** — a long CRASH window opens at the
   primary's site partway through the run, catching a delta after some
   replicas accepted it and before others did;
1. **partition one replica, delay another** — replica 1 goes dark for
   a long window while replica 2's traffic is repeatedly DELAYed;
2. **stale-read injection** — replicas answer reads from their
   previous epoch, exercising the watermark check on the read path.

Plans are bounded (every generated fault sits below a horizon), so a
retry loop that keeps making progress eventually runs fault-free —
the precondition for convergence.  Everything is deterministic: same
seed ⇒ same plan ⇒ same event trace, which the battery also asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.clock import FaultClock
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, merge_plans
from repro.core.errors import ReplicaUnavailable, TransportError
from repro.replica.group import ReplicaGroup
from repro.replica.store import BucketedMerkleStore

#: Write retries per op / read retries per probe / repair rounds: high
#: enough that a bounded plan always drains, small enough to catch a
#: livelock as a test failure instead of a hang.
_WRITE_ATTEMPTS = 30
_READ_ATTEMPTS = 10
_REPAIR_ROUNDS = 15


def chaos_ops(op_count: int = 30, key_space: int = 12) -> list[tuple]:
    """The deterministic workload: puts with periodic deletes."""
    ops: list[tuple] = []
    for index in range(op_count):
        key = f"k{index % key_space}"
        if index % 7 == 6:
            ops.append(("del", f"k{(index - 3) % key_space}"))
        else:
            ops.append(("put", key, f"value-{index}"))
    return ops


def oracle_digest(op_count: int = 30, bucket_count: int = 16,
                  key_space: int = 12) -> str:
    """The fault-free digest every chaos seed must converge to."""
    store = BucketedMerkleStore(bucket_count)
    store.apply(chaos_ops(op_count, key_space))
    return store.root


def scenario_plan(seed: int, replica_count: int = 3,
                  rate: float = 0.12, horizon: int = 60) -> FaultPlan:
    """Seeded random faults + one adversarial overlay (``seed % 3``)."""
    sites = [f"replica:0/{i}" for i in range(replica_count)]
    base = FaultPlan.random(seed, sites, rate, horizon=horizon)
    overlay = FaultPlan()
    scenario = seed % 3
    if scenario == 0:
        # Kill the primary mid-publish: a wide crash window partway in.
        overlay.add(sites[0], 8 + seed % 5,
                    FaultEvent(FaultKind.CRASH, magnitude=6))
    elif scenario == 1 and replica_count >= 3:
        # Partition replica 1, delay replica 2.
        overlay.add(sites[1], 4, FaultEvent(FaultKind.CRASH, magnitude=14))
        for op_index in (3, 6, 9, 12):
            overlay.add(sites[2], op_index,
                        FaultEvent(FaultKind.DELAY, magnitude=3))
    else:
        # Stale reads from every read replica.
        for site in sites[1:]:
            for op_index in (2, 5, 8, 11, 14):
                overlay.add(site, op_index, FaultKind.STALE_READ)
    return merge_plans([base, overlay])


@dataclass(frozen=True)
class ChaosResult:
    """One seed's outcome, comparable across runs (determinism check)."""

    seed: int
    converged: bool
    digest: str | None
    trace: tuple
    repairs: int
    failovers: int
    unacked_writes: int
    write_failures: int
    read_failures: int

    @property
    def matches_oracle(self) -> bool:
        return self.converged and self.write_failures == 0


def run_chaos(seed: int, replica_count: int = 3, op_count: int = 30,
              bucket_count: int = 16, rate: float = 0.12) -> ChaosResult:
    """One chaos run: workload under faults, then anti-entropy."""
    clock = FaultClock()
    plan = scenario_plan(seed, replica_count, rate)
    injector = FaultInjector(plan, clock, seed=seed)
    group = ReplicaGroup(shard="0", replica_count=replica_count,
                         bucket_count=bucket_count, faults=injector,
                         trace=[])
    write_failures = 0
    read_failures = 0
    floor = 0
    ops = chaos_ops(op_count)
    for index, op in enumerate(ops):
        # Write with retry + failover until acknowledged.
        for _ in range(_WRITE_ATTEMPTS):
            try:
                floor = max(floor, group.write((op,)))
                break
            except ReplicaUnavailable:
                try:
                    group.failover()
                except TransportError:
                    pass  # nobody reachable yet; the window drains
                clock.sleep(1)
            except TransportError:
                # Unacknowledged — likely delta gaps at the read
                # replicas; let the background anti-entropy loop run
                # one round so the retry can land contiguously.
                group.anti_entropy_round()
                clock.sleep(1)
        else:
            write_failures += 1
        # Interleave session reads (read-your-writes floor = last ack).
        if index % 3 == 2:
            key = f"k{index % 12}"
            for _ in range(_READ_ATTEMPTS):
                try:
                    group.read(key, min_watermark=floor)
                    break
                except TransportError:
                    clock.sleep(1)
            else:
                read_failures += 1
    # Background anti-entropy until digests agree (bounded rounds:
    # the plan's horizon guarantees eventual fault-free repairs).
    repairs = 0
    for _ in range(_REPAIR_ROUNDS):
        if group.converged():
            break
        repairs += len(group.anti_entropy_round())
        clock.sleep(1)
    converged = group.converged()
    return ChaosResult(
        seed=seed,
        converged=converged,
        digest=group.state_digest() if converged else None,
        trace=tuple(group.trace),
        repairs=repairs,
        failovers=group.failovers,
        unacked_writes=group.unacked_writes,
        write_failures=write_failures,
        read_failures=read_failures,
    )

"""Compiled-policy images and versioned deltas for worker seeding.

A worker never evaluates against policy state it cannot prove it
shares with the dispatcher.  Two artifacts carry that proof:

* :class:`PolicyImage` — the dispatcher's view of truth at a given
  delta watermark: one deterministic compiled-table digest per shard
  (:class:`~repro.compile.table.CompiledPolicy` digests cover the
  conflict resolution, the default, every policy descriptor and every
  DFA row, so equal digests mean equal decisions).  At seed time the
  worker recomputes its own digests from its inherited engines and
  refuses service on any mismatch
  (:class:`~repro.core.errors.SeedMismatch` — fail closed, never
  evaluate unverified).
* :class:`PolicyDelta` — one versioned policy-set change.  Versions
  are contiguous from the seed image's watermark, reusing the replica
  tier's :class:`~repro.replica.group.Delta` discipline: a worker
  accepts exactly ``watermark + 1`` and otherwise marks itself
  diverged (:class:`~repro.core.errors.WorkerDiverged`) — a gap means
  the worker's policy set has a hole, and serving across a hole is
  stale authorization.

Policies inside a delta cross the process boundary by pickling — their
credential expressions ship as factory recipes (see
:mod:`repro.core.credentials`), and ``policy_id`` survives the trip, so
removals need only the id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ConfigurationError
from repro.core.policy import Policy


def shard_digest(engine) -> str:
    """The compiled-table digest of one shard's current epoch.

    *engine* is an :class:`~repro.snap.policy.EpochalPolicyEngine`;
    the digest is its current snapshot's
    :class:`~repro.compile.table.CompiledPolicy` one — deterministic
    over the policy set, so two processes that agree on it agree on
    every decision.
    """
    return engine.current().table.digest


def router_digests(router, shards=None) -> dict[int, str]:
    """Per-shard compiled digests for *router* (all shards, or just
    the given subset)."""
    shards = range(router.shard_count) if shards is None else shards
    return {shard: shard_digest(router.engine(shard)) for shard in shards}


@dataclass(frozen=True)
class PolicyImage:
    """What the dispatcher believes each shard's compiled table is.

    ``version`` is the delta watermark the image reflects (0 at fork
    time, before any delta shipped); ``shard_digests`` maps shard →
    compiled digest hex.
    """

    version: int
    shard_digests: Mapping[int, str]

    def mismatches(self, actual: Mapping[int, str]) -> dict[int, tuple]:
        """Shards where *actual* disagrees (or is missing), as
        ``{shard: (expected, actual_or_None)}``."""
        out: dict[int, tuple] = {}
        for shard, expected in self.shard_digests.items():
            got = actual.get(shard)
            if got != expected:
                out[shard] = (expected, got)
        return out

    @classmethod
    def of_router(cls, router, shards=None,
                  version: int = 0) -> "PolicyImage":
        return cls(version, router_digests(router, shards))


@dataclass(frozen=True)
class PolicyDelta:
    """One contiguous policy-set change: version N applies only on a
    worker whose watermark is exactly N - 1."""

    version: int
    adds: tuple[Policy, ...] = ()
    removes: tuple[int, ...] = field(default=())  # policy_ids

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ConfigurationError(
                f"delta versions start at 1, got {self.version}")
        object.__setattr__(self, "adds", tuple(self.adds))
        object.__setattr__(self, "removes", tuple(self.removes))

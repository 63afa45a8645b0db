"""Concurrency control: strict two-phase locking with deadlock detection.

"Appropriate concurrency control and recovery techniques have to be
developed for the transaction models" (§2.1).  This module provides the
conventional side of that sentence — shared/exclusive locks held to
transaction end, upgrades, and wait-for-graph deadlock detection — the
model whose lock-on-first-touch behaviour §2.1 contrasts with open
bidding (see :mod:`repro.relational.bidding` and benchmark E14).

The manager is synchronous: ``acquire`` either grants, queues the
requester (returned as ``WOULD_WAIT``), or detects that waiting would
close a cycle and answers ``DEADLOCK`` so the caller can abort — the
victim-selection policy is "the requester dies", the simplest of the
classical choices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import TransactionError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class AcquireResult(enum.Enum):
    GRANTED = "granted"
    WOULD_WAIT = "would-wait"
    DEADLOCK = "deadlock"


@dataclass
class _LockState:
    holders: dict[str, LockMode] = field(default_factory=dict)
    waiters: list[tuple[str, LockMode]] = field(default_factory=list)


class LockManager:
    """S/X locks on named resources with a wait-for graph."""

    def __init__(self) -> None:
        self._locks: dict[str, _LockState] = {}
        self._waiting_for: dict[str, set[str]] = {}
        self.deadlocks_detected = 0

    # -- core ---------------------------------------------------------------

    def _state(self, resource: str) -> _LockState:
        return self._locks.setdefault(resource, _LockState())

    def holders(self, resource: str) -> dict[str, LockMode]:
        return dict(self._state(resource).holders)

    def _can_grant(self, state: _LockState, txn: str,
                   mode: LockMode) -> bool:
        for holder, held in state.holders.items():
            if holder == txn:
                continue
            if not mode.compatible_with(held):
                return False
        return True

    def _would_deadlock(self, txn: str, blockers: set[str]) -> bool:
        """Would txn waiting on *blockers* close a cycle?"""
        stack = list(blockers)
        seen: set[str] = set()
        while stack:
            current = stack.pop()
            if current == txn:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._waiting_for.get(current, ()))
        return False

    def acquire(self, txn: str, resource: str,
                mode: LockMode) -> AcquireResult:
        """Try to take (or upgrade) a lock.

        GRANTED — the lock is now held.  WOULD_WAIT — the caller is
        queued; retry after the blockers release.  DEADLOCK — waiting
        would close a cycle; the caller must abort (its queue entry is
        not recorded).
        """
        state = self._state(resource)
        held = state.holders.get(txn)
        if held is mode or (held is LockMode.EXCLUSIVE
                            and mode is LockMode.SHARED):
            return AcquireResult.GRANTED
        if self._can_grant(state, txn, mode):
            state.holders[txn] = mode
            self._waiting_for.pop(txn, None)
            return AcquireResult.GRANTED
        blockers = {holder for holder, held_mode in state.holders.items()
                    if holder != txn
                    and not mode.compatible_with(held_mode)}
        if self._would_deadlock(txn, blockers):
            self.deadlocks_detected += 1
            return AcquireResult.DEADLOCK
        self._waiting_for.setdefault(txn, set()).update(blockers)
        if (txn, mode) not in state.waiters:
            state.waiters.append((txn, mode))
        return AcquireResult.WOULD_WAIT

    def release_all(self, txn: str) -> list[str]:
        """Release every lock txn holds (strict 2PL: at commit/abort).

        Returns transactions whose queued requests became grantable and
        were granted (FIFO per resource).
        """
        woken: list[str] = []
        self._waiting_for.pop(txn, None)
        for resource, state in self._locks.items():
            state.holders.pop(txn, None)
            state.waiters = [(t, m) for t, m in state.waiters
                             if t != txn]
            # Grant queued requests now compatible, in FIFO order.
            still_waiting: list[tuple[str, LockMode]] = []
            for waiter, mode in state.waiters:
                if self._can_grant(state, waiter, mode):
                    state.holders[waiter] = mode
                    self._waiting_for.pop(waiter, None)
                    woken.append(waiter)
                else:
                    still_waiting.append((waiter, mode))
            state.waiters = still_waiting
        # Drop txn from others' wait sets.
        for waiting in self._waiting_for.values():
            waiting.discard(txn)
        return woken

    def acquire_or_raise(self, txn: str, resource: str,
                         mode: LockMode) -> None:
        """Convenience for single-threaded tests: DEADLOCK raises,
        WOULD_WAIT also raises (nothing else will ever release)."""
        result = self.acquire(txn, resource, mode)
        if result is AcquireResult.DEADLOCK:
            raise TransactionError(
                f"deadlock: {txn!r} aborted on {resource!r}")
        if result is AcquireResult.WOULD_WAIT:
            raise TransactionError(
                f"{txn!r} would block on {resource!r}")


"""Multi-tenant admission: token buckets, DRR fairness, watermarks.

The serving layer's security posture starts *before* authorization:
"Trust Brokerage Systems for the Internet" motivates per-principal
admission as a first-class primitive — a tenant's right to submit load
is itself a brokered, rate-limited grant.  Three mechanisms compose:

* :class:`TokenBucket` — per-tenant rate limiting.  A tenant over its
  sustained rate (plus burst) is shed with a typed
  :class:`~repro.core.errors.Overloaded` carrying a ``retry_after``
  hint derived from the bucket's refill rate — the earliest instant a
  token will exist;
* :class:`DeficitRoundRobin` — fair dequeueing across tenant backlogs.
  Each round a tenant's deficit grows by its quantum and it drains that
  many requests; a noisy tenant's long backlog cannot starve a
  well-behaved one because the scheduler moves on when the deficit is
  spent, not when the queue is empty;
* :class:`AdmissionController` — queue-depth watermarks.  Above the
  high watermark the controller sheds by *priority tier*: the required
  priority climbs linearly with depth, so low-priority tenants are
  refused (gracefully, with Retry-After) first, higher tiers only as
  depth approaches the hard queue limit — where
  :class:`~repro.core.errors.AdmissionRejected` is raised: the bounded
  queue never grows past it.  Shedding starts at the high
  watermark and stops only once depth falls back under the low
  watermark (hysteresis), so the loop drains instead of oscillating.

Time is injected (``clock`` returns seconds as float) so tests and the
chaos battery drive admission on a manual clock with zero flakiness.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    Overloaded,
)

Clock = Callable[[], float]


class ManualClock:
    """Deterministic test clock: ``advance()`` is the only way time moves."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ConfigurationError("clock cannot run backwards")
        self._now += seconds
        return self._now


@dataclass(frozen=True)
class TenantConfig:
    """Admission contract for one tenant.

    ``rate``/``burst`` parameterize the token bucket (requests per
    second, bucket capacity); ``priority`` orders watermark shedding —
    larger survives deeper overload; ``quantum`` weights the DRR
    scheduler (requests drained per round).
    """

    rate: float = 1000.0
    burst: float = 100.0
    priority: int = 0
    quantum: int = 32

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("tenant rate must be > 0")
        if self.burst < 1:
            raise ConfigurationError("tenant burst must be >= 1")
        if self.priority < 0:
            raise ConfigurationError("tenant priority must be >= 0")
        if self.quantum < 1:
            raise ConfigurationError("tenant quantum must be >= 1")


class TokenBucket:
    """Classic token bucket on an injected clock.

    ``try_take`` is non-blocking: it either consumes a token or reports
    how long until one exists — the Retry-After hint the gateway puts
    on the :class:`~repro.core.errors.Overloaded` response.
    """

    def __init__(self, rate: float, burst: float, clock: Clock) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate)
            self._refilled_at = now

    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens

    def try_take(self, amount: float = 1.0,
                 now: float | None = None) -> float | None:
        """Consume *amount* tokens; return ``None`` on success or the
        seconds until the bucket could satisfy the request."""
        self._refill(self._clock() if now is None else now)
        if self._tokens >= amount:
            self._tokens -= amount
            return None
        return (amount - self._tokens) / self.rate


class DeficitRoundRobin:
    """Deficit-round-robin over named queues.

    ``take(budget)`` drains up to *budget* items: the tenant ring is
    visited in registration order; each visit tops the tenant's deficit
    up by its quantum and dequeues while deficit and backlog last.
    Deficits reset when a queue empties, so a tenant cannot bank credit
    while idle — the standard DRR no-starvation argument applies per
    round.  Only backlogged slots are visited (an ascending index kept
    by ``push`` and ``take``): an idle tenant's visit would only reset
    a deficit that is already 0, so skipping it changes nothing but
    the cost, which is O(backlogged tenants), not O(registered ones).
    """

    def __init__(self) -> None:
        self._queues: dict[str, list] = {}
        self._quanta: dict[str, int] = {}
        self._deficits: dict[str, int] = {}
        self._ring: list[str] = []
        self._slots: dict[str, int] = {}
        # Ring slots whose queue is non-empty, ascending.
        self._backlogged: list[int] = []
        self._cursor = 0
        self._pending = 0

    def register(self, tenant: str, quantum: int) -> None:
        if tenant not in self._queues:
            self._queues[tenant] = []
            self._slots[tenant] = len(self._ring)
            self._ring.append(tenant)
        self._quanta[tenant] = quantum
        self._deficits.setdefault(tenant, 0)

    def push(self, tenant: str, item: object) -> int:
        """Enqueue for *tenant* (must be registered); returns depth."""
        queue = self._queues[tenant]
        if not queue:
            insort(self._backlogged, self._slots[tenant])
        queue.append(item)
        self._pending += 1
        return self._pending

    def pending(self) -> int:
        return self._pending

    def backlog(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def take(self, budget: int) -> list:
        """Dequeue up to *budget* items fairly across tenants: one
        slice per tenant visit, so a deep backlog is shifted once per
        visit, not once per item."""
        taken: list = []
        backlogged = self._backlogged
        if not backlogged or budget <= 0:
            return taken
        ring = self._ring
        slot = self._cursor
        while backlogged and len(taken) < budget:
            # The next backlogged slot at or after the cursor, cyclic.
            at = bisect_left(backlogged, slot)
            if at == len(backlogged):
                at = 0
            slot = backlogged[at]
            tenant = ring[slot]
            queue = self._queues[tenant]
            deficit = self._deficits[tenant] + self._quanta[tenant]
            count = min(len(queue), deficit, budget - len(taken))
            taken += queue[:count]
            del queue[:count]
            if queue:
                self._deficits[tenant] = deficit - count
            else:
                self._deficits[tenant] = 0
                del backlogged[at]
            slot += 1
        self._cursor = slot % len(ring)
        self._pending -= len(taken)
        return taken

    def drain_all(self) -> list:
        """Everything still queued, fair order (shutdown path)."""
        return self.take(self._pending)


class AdmissionController:
    """Token buckets + watermark shedding in front of the DRR queues."""

    def __init__(self, clock: Clock, queue_limit: int = 4096,
                 high_watermark: int | None = None,
                 low_watermark: int | None = None) -> None:
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        self.clock = clock
        self.queue_limit = queue_limit
        self.high_watermark = (high_watermark if high_watermark is not None
                               else (queue_limit * 3) // 4)
        self.low_watermark = (low_watermark if low_watermark is not None
                              else queue_limit // 2)
        if not 0 <= self.low_watermark <= self.high_watermark \
                <= queue_limit:
            raise ConfigurationError(
                f"watermarks must satisfy 0 <= low <= high <= limit, "
                f"got low={self.low_watermark} high={self.high_watermark} "
                f"limit={queue_limit}")
        self._configs: dict[str, TenantConfig] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._max_priority = 0
        self._shedding = False

    # -- tenant registry --------------------------------------------------

    def register(self, tenant: str, config: TenantConfig) -> None:
        self._configs[tenant] = config
        self._buckets[tenant] = TokenBucket(config.rate, config.burst,
                                            self.clock)
        self._max_priority = max(
            (c.priority for c in self._configs.values()), default=0)

    def config(self, tenant: str) -> TenantConfig:
        try:
            return self._configs[tenant]
        except KeyError:
            raise ConfigurationError(
                f"unknown tenant {tenant!r}; register it first") from None

    # -- the admission decision -------------------------------------------

    def required_priority(self, depth: int) -> float:
        """Priority a tenant needs to be admitted at *depth* pending.

        0 below the shed threshold; climbs linearly to ``max_priority
        + 1`` at the hard limit.  Lower tiers are refused first and
        even the top tier is shed (gracefully, with Retry-After) in
        the last slice before the hard :class:`AdmissionRejected`
        bound — and when every tenant shares one priority, all of them
        degrade gracefully between the watermarks instead of slamming
        into the hard limit.  While shedding, the threshold is
        measured from the *low* watermark — the hysteresis that lets
        the queue actually drain.
        """
        floor = self.low_watermark if self._shedding \
            else self.high_watermark
        if depth <= floor:
            return 0.0
        span = max(self.queue_limit - floor, 1)
        return (self._max_priority + 1) * (depth - floor) / span

    def admit(self, tenant: str, depth: int, amount: float = 1.0, *,
              now: float | None = None,
              drain_rate: Callable[[float], float] | None = None) -> None:
        """Admit *amount* requests for *tenant* given *depth* pending,
        or raise the typed refusal.  ``amount`` is what one decision
        admits as a unit (batch admission): it must fit under the hard
        queue bound whole and charges that many bucket tokens at once.
        ``drain_rate(now)`` (requests/s served recently) is called only
        to scale a watermark refusal's Retry-After hint."""
        config = self._configs.get(tenant) or self.config(tenant)
        if now is None:
            now = self.clock()
        if depth + amount > self.queue_limit:
            raise AdmissionRejected(
                f"admission queue full ({depth} pending + {amount:g} "
                f"> limit {self.queue_limit})")
        if self._shedding and depth <= self.low_watermark:
            self._shedding = False
        elif not self._shedding and depth >= self.high_watermark:
            self._shedding = True
        if depth > self.low_watermark:     # else nothing is shed
            required = self.required_priority(depth)
            if config.priority < required:
                rate = drain_rate(now) if drain_rate is not None else 0.0
                excess = depth - self.low_watermark
                retry_after = excess / rate if rate > 0 else 0.05
                raise Overloaded(
                    f"queue depth {depth} sheds priority "
                    f"{config.priority} (< {required:.2f}) for tenant "
                    f"{tenant!r}", retry_after=min(retry_after, 5.0),
                    reason="watermark")
        wait = self._buckets[tenant].try_take(amount, now)
        if wait is not None:
            raise Overloaded(
                f"tenant {tenant!r} exceeded its admission rate "
                f"({config.rate:g}/s, burst {config.burst:g})",
                retry_after=wait, reason="bucket")

    @property
    def shedding(self) -> bool:
        return self._shedding

"""Unit tests for the admission layer: clocks, buckets, DRR, watermarks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import (
    AdmissionRejected,
    ConfigurationError,
    Overloaded,
)
from repro.gateway.admission import (
    AdmissionController,
    DeficitRoundRobin,
    ManualClock,
    TenantConfig,
    TokenBucket,
)


class TestManualClock:
    def test_only_advance_moves_time(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(1.5)
        assert clock() == 1.5

    def test_cannot_run_backwards(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1)


class TestTenantConfig:
    def test_defaults_are_valid(self):
        config = TenantConfig()
        assert config.rate > 0 and config.quantum >= 1

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0}, {"burst": 0}, {"priority": -1}, {"quantum": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantConfig(**kwargs)


class TestTokenBucket:
    def test_burst_then_refusal_with_retry_hint(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(3)] == [None] * 3
        wait = bucket.try_take()
        assert wait is not None and wait == pytest.approx(0.1)

    def test_refills_at_rate_up_to_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        for _ in range(3):
            bucket.try_take()
        clock.advance(0.1)
        assert bucket.try_take() is None      # exactly one token back
        assert bucket.try_take() is not None
        clock.advance(100.0)
        assert bucket.tokens() == pytest.approx(3.0)  # capped at burst

    def test_retry_hint_is_time_to_full_token(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        bucket.try_take()
        clock.advance(0.25)                   # half a token refilled
        wait = bucket.try_take()
        assert wait == pytest.approx(0.25)


class TestDeficitRoundRobin:
    def test_fifo_within_a_tenant(self):
        drr = DeficitRoundRobin()
        drr.register("a", quantum=4)
        for item in range(5):
            drr.push("a", item)
        assert drr.take(10) == [0, 1, 2, 3, 4]
        assert drr.pending() == 0

    def test_noisy_tenant_cannot_starve_quiet_one(self):
        drr = DeficitRoundRobin()
        drr.register("noisy", quantum=2)
        drr.register("quiet", quantum=2)
        for item in range(100):
            drr.push("noisy", f"n{item}")
        drr.push("quiet", "q0")
        batch = drr.take(6)
        assert "q0" in batch        # served within the first round
        assert drr.backlog("noisy") > 90

    def test_quantum_weights_share(self):
        drr = DeficitRoundRobin()
        drr.register("heavy", quantum=3)
        drr.register("light", quantum=1)
        for item in range(50):
            drr.push("heavy", ("h", item))
            drr.push("light", ("l", item))
        batch = drr.take(40)
        heavy = sum(1 for tag, _ in batch if tag == "h")
        light = sum(1 for tag, _ in batch if tag == "l")
        assert heavy == pytest.approx(3 * light, abs=3)

    def test_idle_tenant_banks_no_deficit(self):
        drr = DeficitRoundRobin()
        drr.register("a", quantum=2)
        drr.register("b", quantum=2)
        for item in range(4):
            drr.push("a", item)
        assert len(drr.take(10)) == 4   # b idle: one lap, no hang
        drr.push("b", "late")
        assert drr.take(10) == ["late"]

    def test_drain_all_empties(self):
        drr = DeficitRoundRobin()
        drr.register("a", quantum=1)
        drr.register("b", quantum=1)
        for item in range(3):
            drr.push("a", ("a", item))
            drr.push("b", ("b", item))
        assert len(drr.drain_all()) == 6
        assert drr.pending() == 0


class PerItemDRR(DeficitRoundRobin):
    """The reference: ``take`` dequeues one item per ``pop(0)``."""

    def take(self, budget: int) -> list:
        taken: list = []
        if self._pending == 0 or budget <= 0 or not self._ring:
            return taken
        ring = self._ring
        idle_visits = 0
        while len(taken) < budget and idle_visits < len(ring):
            tenant = ring[self._cursor % len(ring)]
            self._cursor = (self._cursor + 1) % len(ring)
            queue = self._queues[tenant]
            if not queue:
                self._deficits[tenant] = 0
                idle_visits += 1
                continue
            idle_visits = 0
            self._deficits[tenant] += self._quanta[tenant]
            while (queue and self._deficits[tenant] > 0
                    and len(taken) < budget):
                taken.append(queue.pop(0))
                self._deficits[tenant] -= 1
            if not queue:
                self._deficits[tenant] = 0
        self._pending -= len(taken)
        return taken


#: Interleaved DRR operations over four tenants: (re)register with a
#: quantum, push a burst, or take a budget.
drr_ops = st.lists(st.one_of(
    st.tuples(st.just("register"), st.integers(0, 3),
              st.integers(1, 9)),
    st.tuples(st.just("push"), st.integers(0, 3), st.integers(1, 12)),
    st.tuples(st.just("take"), st.integers(0, 24), st.just(0)),
), max_size=40)


class TestSliceTakeMatchesPerItemReference:
    @settings(max_examples=300, deadline=None)
    @given(drr_ops)
    def test_same_items_and_deficits(self, ops):
        fast, reference = DeficitRoundRobin(), PerItemDRR()
        serial = 0
        for op, a, b in ops:
            if op == "register":
                for drr in (fast, reference):
                    drr.register(f"t{a}", quantum=b)
            elif op == "push":
                if f"t{a}" not in fast._queues:
                    continue
                for _ in range(b):
                    serial += 1
                    fast.push(f"t{a}", serial)
                    reference.push(f"t{a}", serial)
            else:
                assert fast.take(a) == reference.take(a)
            assert fast._deficits == reference._deficits
            assert fast._cursor == reference._cursor
            assert fast.pending() == reference.pending()
        assert fast.drain_all() == reference.drain_all()


class CountingQueues(dict):
    """A ``_queues`` that counts the queues ``take`` looks up."""

    reads = 0

    def __getitem__(self, tenant):
        self.reads += 1
        return super().__getitem__(tenant)


class TestTakeVisitsOnlyBackloggedTenants:
    def test_one_backlog_among_a_thousand_tenants_is_one_lookup(self):
        drr = DeficitRoundRobin()
        for index in range(1000):
            drr.register(f"t{index}", quantum=1)
        drr._queues = CountingQueues(drr._queues)
        drr.push("t0", "first")
        assert drr.take(1) == ["first"]     # the cursor is now past t0
        drr.push("t0", "second")
        drr._queues.reads = 0
        assert drr.take(8) == ["second"]
        # A per-slot ring walk looks up every queue twice here: up to
        # t0, then one idle lap to notice that nothing is left.
        assert drr._queues.reads == 1
        assert drr._cursor == 1


def controller(limit=100, **kwargs) -> AdmissionController:
    return AdmissionController(ManualClock(), queue_limit=limit, **kwargs)


class TestAdmissionController:
    def test_unknown_tenant_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            controller().admit("ghost", depth=0)

    def test_hard_limit_raises_admission_rejected(self):
        ctl = controller(limit=10)
        ctl.register("t", TenantConfig())
        with pytest.raises(AdmissionRejected):
            ctl.admit("t", depth=10)

    def test_a_batch_must_fit_under_the_hard_limit_whole(self):
        ctl = controller(limit=4, high_watermark=4, low_watermark=4)
        ctl.register("t", TenantConfig(rate=1e9, burst=1e9))
        with pytest.raises(AdmissionRejected):
            ctl.admit("t", depth=0, amount=64.0)
        with pytest.raises(AdmissionRejected):
            ctl.admit("t", depth=2, amount=3.0)
        ctl.admit("t", depth=2, amount=2.0)     # fills it exactly
        ctl.admit("t", depth=3)                 # one request: depth < limit

    def test_bucket_exhaustion_sheds_with_retry_after(self):
        ctl = controller()
        ctl.register("t", TenantConfig(rate=10.0, burst=2.0))
        ctl.admit("t", depth=0)
        ctl.admit("t", depth=1)
        with pytest.raises(Overloaded) as exc_info:
            ctl.admit("t", depth=2)
        assert exc_info.value.reason == "bucket"
        assert exc_info.value.retry_after == pytest.approx(0.1)

    def test_watermark_sheds_low_priority_first(self):
        ctl = controller(limit=100, high_watermark=75, low_watermark=50)
        ctl.register("low", TenantConfig(priority=0))
        ctl.register("high", TenantConfig(priority=3))
        depth = 80                      # above high watermark
        with pytest.raises(Overloaded) as exc_info:
            ctl.admit("low", depth)
        assert exc_info.value.reason == "watermark"
        assert exc_info.value.retry_after > 0
        ctl.admit("high", depth)        # high priority still admitted

    def test_top_priority_survives_deepest_before_hard_limit(self):
        ctl = controller(limit=100, high_watermark=75, low_watermark=50)
        ctl.register("top", TenantConfig(priority=5))
        # required = 6 * (depth - 50) / 50: passes priority 5 only
        # beyond depth ~91.7 — the top tier degrades gracefully in the
        # last slice, then hits the hard bound.
        ctl.admit("top", depth=91)
        with pytest.raises(Overloaded):
            ctl.admit("top", depth=95)
        with pytest.raises(AdmissionRejected):
            ctl.admit("top", depth=100)

    def test_hysteresis_keeps_shedding_until_low_watermark(self):
        ctl = controller(limit=100, high_watermark=75, low_watermark=50)
        ctl.register("low", TenantConfig(priority=0, rate=1e9, burst=1e9))
        ctl.register("high", TenantConfig(priority=9, rate=1e9, burst=1e9))
        with pytest.raises(Overloaded):
            ctl.admit("low", depth=80)      # trips the high watermark
        assert ctl.shedding
        # Depth fell to 60 — between the watermarks.  Without
        # hysteresis priority 0 would be re-admitted and the queue
        # would oscillate; with it, shedding continues.
        with pytest.raises(Overloaded):
            ctl.admit("low", depth=60)
        ctl.admit("low", depth=50)          # at the low watermark: clear
        assert not ctl.shedding
        ctl.admit("low", depth=60)          # and 60 admits again

    def test_retry_after_scales_with_drain_rate(self):
        ctl = controller(limit=100, high_watermark=75, low_watermark=50)
        ctl.register("low", TenantConfig(priority=0))
        ctl.register("high", TenantConfig(priority=9))
        with pytest.raises(Overloaded) as fast:
            ctl.admit("low", depth=80, drain_rate=lambda now: 1000.0)
        with pytest.raises(Overloaded) as slow:
            ctl.admit("low", depth=80, drain_rate=lambda now: 10.0)
        assert slow.value.retry_after > fast.value.retry_after

    def test_drain_rate_is_read_only_for_a_watermark_refusal(self):
        ctl = controller(limit=100, high_watermark=75, low_watermark=50)
        ctl.register("low", TenantConfig(priority=0, rate=1e9, burst=1e9))
        calls = []

        def drain_rate(now):
            calls.append(now)
            return 100.0

        ctl.admit("low", depth=10, now=2.0, drain_rate=drain_rate)
        assert calls == []
        with pytest.raises(Overloaded) as refused:
            ctl.admit("low", depth=80, now=3.0, drain_rate=drain_rate)
        assert calls == [3.0]
        assert refused.value.retry_after == pytest.approx(30 / 100.0)

    def test_invalid_watermark_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            controller(limit=100, high_watermark=40, low_watermark=60)

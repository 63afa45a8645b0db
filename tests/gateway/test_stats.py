"""Shared gateway telemetry: histogram math + the gateway records it."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.gateway.stats import _BOUNDS, _BUCKETS
from repro.gateway.stats import GatewayStats, LatencyHistogram

#: Latencies across the whole range: negative (clamped), sub-floor,
#: sub-millisecond, seconds and past the last bucket.
latencies = st.lists(st.one_of(
    st.floats(-1.0, 0.0), st.floats(0.0, 1e-6), st.floats(1e-6, 1e-3),
    st.floats(1e-3, 10.0), st.floats(1e4, 1e12)), max_size=80)


def record_one(histogram: LatencyHistogram, seconds: float) -> None:
    """The reference: one sample, clamped, bisected over every bound."""
    seconds = max(seconds, 0.0)
    histogram._counts[min(bisect_left(_BOUNDS, seconds), _BUCKETS - 1)] += 1
    histogram._count += 1
    histogram._sum += seconds


class TestLatencyHistogram:
    def test_empty_reads_zero(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean() == 0.0
        assert histogram.percentile(0.99) == 0.0

    def test_percentile_is_an_upper_bound(self):
        histogram = LatencyHistogram()
        samples = [0.0001, 0.0002, 0.0004, 0.01, 0.5]
        for sample in samples:
            histogram.record(sample)
        for q in (0.5, 0.99, 0.999):
            index = min(int(q * len(samples)), len(samples) - 1)
            assert histogram.percentile(q) >= sorted(samples)[index]

    def test_percentiles_are_monotone_in_q(self):
        histogram = LatencyHistogram()
        for i in range(1, 1000):
            histogram.record(i * 1e-5)
        p50 = histogram.percentile(0.50)
        p99 = histogram.percentile(0.99)
        p999 = histogram.percentile(0.999)
        assert p50 <= p99 <= p999
        assert p99 < histogram.percentile(1.0) * 4  # same decade

    def test_bucket_bound_within_2x_of_sample(self):
        histogram = LatencyHistogram()
        histogram.record(0.003)
        bound = histogram.percentile(0.5)
        assert 0.003 <= bound <= 0.006   # log2 buckets: ≤ 2x over

    def test_negative_and_huge_samples_saturate(self):
        histogram = LatencyHistogram()
        histogram.record(-1.0)
        histogram.record(1e9)
        assert histogram.count == 2
        assert histogram.percentile(0.999) > 0

    def test_merge_sums_counts_and_mass(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.004)
        b.record(0.004)
        a.merge(b)
        assert a.count == 3
        assert a.mean() == pytest.approx(0.003)

    @settings(max_examples=200, deadline=None)
    @given(latencies, latencies)
    def test_record_many_is_record_per_sample(self, earlier, samples):
        reference, many = LatencyHistogram(), LatencyHistogram()
        for seconds in earlier + samples:
            record_one(reference, seconds)
        for seconds in earlier:
            many.record(seconds)
        many.record_many(samples)
        assert many._counts == reference._counts
        assert many.count == reference.count
        assert many._sum == reference._sum    # same additions, same order
        assert many.snapshot() == reference.snapshot()

    def test_snapshot_keys(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        snap = histogram.snapshot()
        assert set(snap) == {"count", "mean_s", "p50_s", "p99_s",
                             "p999_s"}
        assert snap["count"] == 1


class TestGatewayStats:
    def test_snapshot_carries_latency_percentiles(self):
        stats = GatewayStats()
        stats.latency.record(0.002)
        snap = stats.snapshot()
        for key in ("latency_count", "latency_p50_s", "latency_p99_s",
                    "latency_p999_s", "streams", "stream_chunks",
                    "shed"):
            assert key in snap
        assert snap["latency_count"] == 1
        assert snap["latency_p50_s"] > 0


class TestGatewayRecordsLatency:
    def test_gateway_records_into_the_shared_histogram(self):
        from repro.core.policy import PolicyBase
        from repro.core.evaluator import PolicyEvaluator
        from tests.gateway.driver import drive, sync_gateway
        from tests.scale.workloads import random_policies, random_requests
        import random

        rng = random.Random(3)
        engine = PolicyEvaluator(PolicyBase(random_policies(rng, 10)))
        gateway = sync_gateway(engine)
        assert type(gateway.stats) is GatewayStats
        futures = drive(gateway, random_requests(rng, 20))
        assert all(f.exception() is None for f in futures)
        snap = gateway.stats.snapshot()
        assert snap["latency_count"] == 20
        assert snap["latency_p99_s"] >= snap["latency_p50_s"] > 0

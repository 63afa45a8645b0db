"""Regression pins for GatewayStats/LatencyHistogram edge cases.

``test_stats.py`` checks the behavioral contracts (upper bound,
monotonicity, merge); this file pins *exact values* at the edges —
empty histogram, single sample, bucket floor, saturating last bucket —
so a refactor of the bucket math cannot silently shift them.  Both
tiers (asyncio ``repro.gateway.core`` and its process-tier subclass
``repro.multicore.dispatcher``) share the one class, which is also
pinned.
"""

import pytest

from repro.gateway.stats import GatewayStats, LatencyHistogram
from repro.gateway.stats import _BOUNDS, _BUCKETS, _FLOOR_S, _OCTAVES, _SUBDIV


class TestEmptyHistogram:
    def test_every_percentile_is_exactly_zero(self):
        histogram = LatencyHistogram()
        for q in (0.0, 0.25, 0.5, 0.99, 0.999, 1.0):
            assert histogram.percentile(q) == 0.0
        assert histogram.mean() == 0.0
        assert histogram.count == 0

    def test_empty_snapshot_is_all_zeros(self):
        snap = LatencyHistogram().snapshot()
        assert snap == {"count": 0, "mean_s": 0.0, "p50_s": 0.0,
                        "p99_s": 0.0, "p999_s": 0.0}


class TestSingleSample:
    def test_all_quantiles_collapse_to_the_covering_bound(self):
        histogram = LatencyHistogram()
        # 0.003s sits in octave 11 (2048µs base); the linear sub-bucket
        # tops out at 2048µs * 1.5 = 3072µs — a ~2.4% overestimate
        # where the old log2 scheme reported 4096µs (+37%).
        histogram.record(0.003)
        expected = _FLOOR_S * 2.0 ** 11 * 1.5
        assert expected == 0.003072
        for q in (0.25, 0.5, 0.99, 0.999, 1.0):
            assert histogram.percentile(q) == expected

    def test_quantile_zero_reads_the_floor(self):
        # target = 0 is met before any count accumulates: q=0 reports
        # the histogram floor, not the sample's bucket.
        histogram = LatencyHistogram()
        histogram.record(0.003)
        assert histogram.percentile(0.0) == _FLOOR_S

    def test_sub_floor_sample_lands_in_the_first_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(1e-9)   # below the 1µs floor
        assert histogram.percentile(1.0) == _FLOOR_S

    def test_negative_sample_clamps_to_zero_not_underflow(self):
        histogram = LatencyHistogram()
        histogram.record(-5.0)
        assert histogram.count == 1
        assert histogram.percentile(1.0) == _FLOOR_S
        assert histogram.mean() == 0.0


class TestSaturatingBucket:
    def test_huge_sample_saturates_into_the_last_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(1e12)   # way past the ~hour ceiling
        assert histogram.percentile(1.0) == _BOUNDS[-1]
        assert histogram.percentile(0.5) == _BOUNDS[-1]

    def test_last_bound_value_is_pinned(self):
        # 1µs doubled 35 times: ~9.5 hours.  A change to the bucket
        # layout or _FLOOR_S shows up here first.
        assert _BUCKETS == 1 + _OCTAVES * _SUBDIV == 561
        assert _BOUNDS[-1] == pytest.approx(_FLOOR_S * 2.0 ** 35)
        assert _BOUNDS[-1] > 3600.0  # beyond any sane request

    def test_bounds_are_strictly_increasing(self):
        for left, right in zip(_BOUNDS, _BOUNDS[1:]):
            assert left < right

    def test_saturated_and_normal_samples_order_correctly(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.record(0.001)
        histogram.record(1e12)
        assert histogram.percentile(0.5) < _BOUNDS[-1]
        assert histogram.percentile(0.999) == _BOUNDS[-1]


class TestSubMillisecondResolution:
    def test_nearby_submillisecond_samples_resolve_apart(self):
        # The BENCH_gateway regression: 4µs and 12µs request latencies
        # used to collapse into one 16.384ms log2 bucket.  With linear
        # sub-buckets they land in distinct buckets and the percentiles
        # differentiate.
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.record(4e-6)
        for _ in range(10):
            histogram.record(12e-6)
        p50 = histogram.percentile(0.50)
        p99 = histogram.percentile(0.99)
        assert p50 < p99
        assert p50 <= 5e-6       # within ~6% of the 4µs mass
        assert 12e-6 <= p99 <= 13e-6

    def test_relative_overestimate_is_bounded(self):
        # Every bound overshoots the recorded value by at most
        # 1/_SUBDIV (plus the floor bucket, exempt by construction).
        for value in (3e-6, 47e-6, 0.00091, 0.0123, 0.77, 31.4):
            histogram = LatencyHistogram()
            histogram.record(value)
            bound = histogram.percentile(1.0)
            assert value <= bound <= value * (1.0 + 2.0 / _SUBDIV)


class TestStageHistograms:
    def test_fresh_stats_have_no_stage_keys(self):
        assert not [k for k in GatewayStats().snapshot()
                    if k.startswith("stage_")]

    def test_record_stage_creates_and_snapshots_the_stage(self):
        stats = GatewayStats()
        stats.record_stage("evaluate", 0.003)
        snap = stats.snapshot()
        assert snap["stage_evaluate_count"] == 1
        assert snap["stage_evaluate_p99_s"] == 0.003072
        # Other stages stay absent until they record.
        assert "stage_stream_count" not in snap

    def test_stage_accessor_reuses_one_histogram(self):
        stats = GatewayStats()
        with stats._lock:
            first = stats.stage("ipc")
            second = stats.stage("ipc")
        assert first is second


class TestSharedAcrossFrontEnds:
    def test_both_tiers_expose_the_same_stats_class(self):
        from repro.core.credentials import anyone
        from repro.core.policy import Action, grant
        from repro.gateway import AsyncRequestGateway, EpochalShardRouter
        from repro.multicore import MulticoreGateway
        policies = [grant(anyone(), Action.READ, "**")]
        router = EpochalShardRouter.from_policies(policies)
        for gateway in (AsyncRequestGateway(router),
                        MulticoreGateway(policies, workers=0)):
            assert type(gateway.stats) is GatewayStats

    def test_snapshot_key_set_is_pinned(self):
        snap = GatewayStats().snapshot()
        assert set(snap) == {
            "admitted", "rejected", "shed", "completed", "failed",
            "batches", "queue_wait_s", "evaluate_s", "snapshot_reads",
            "writes", "epochs_advanced", "streams", "stream_chunks",
            "replica_reads", "replica_writes",
            "latency_count", "latency_mean_s", "latency_p50_s",
            "latency_p99_s", "latency_p999_s",
        }

    def test_replica_counters_start_zero_and_survive_snapshot(self):
        stats = GatewayStats()
        snap = stats.snapshot()
        assert snap["replica_reads"] == 0
        assert snap["replica_writes"] == 0
        stats.replica_reads += 3
        stats.replica_writes += 2
        snap = stats.snapshot()
        assert snap["replica_reads"] == 3
        assert snap["replica_writes"] == 2

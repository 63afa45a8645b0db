"""Gateway telemetry: stage counters + latency percentiles.

:class:`~repro.gateway.core.AsyncRequestGateway` records into one
:class:`GatewayStats`, so the end-to-end benchmark reports per-stage
counters plus :class:`LatencyHistogram` percentiles
(p50/p99/p999), not just throughput.

The histogram is two-tier log-linear: each power-of-two octave from the
1µs floor is split into 16 linear sub-buckets, so relative error is
bounded at ~6% everywhere instead of the 2x a pure log2 scheme gives.
Sub-millisecond latencies — where the async gateway actually lives —
resolve into distinct buckets rather than collapsing into one.
Recording is O(log buckets) with no allocation; percentile reads walk
the cumulative counts and report the bucket's upper bound — a
deliberate overestimate, so a reported p99 is a bound the real p99
respects.  A batch (or shard group) records its samples in one
:meth:`LatencyHistogram.record_many` call.

Admission and tick counters are written only on the event-loop thread,
so they take no lock; ``GatewayStats._lock`` guards what ``read``,
``write``, the replica path and streams may write from another thread,
and :meth:`GatewayStats.snapshot`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

#: Smallest resolvable latency (seconds): one microsecond.
_FLOOR_S = 1e-6
#: Linear sub-buckets per power-of-two octave.  16 keeps the worst-case
#: relative overestimate at 1/16 ≈ 6.25% of the value.
_SUBDIV = 16
#: Octaves of doubling above the floor; 35 doublings from 1µs tops out
#: above an hour, which no sane request survives.
_OCTAVES = 35
#: One floor bucket plus 16 sub-buckets per octave.
_BUCKETS = 1 + _OCTAVES * _SUBDIV
#: Upper bounds per bucket.  Bucket 0 is the floor itself; octave *o*
#: sub-bucket *s* tops out at ``floor * 2**o * (1 + (s+1)/16)``.  The
#: final bound is exactly ``floor * 2**35`` (the s=15 term doubles the
#: octave base, and power-of-two scaling is exact in floats).
_BOUNDS = tuple([_FLOOR_S] + [
    _FLOOR_S * 2.0 ** octave * (1.0 + (sub + 1) / _SUBDIV)
    for octave in range(_OCTAVES) for sub in range(_SUBDIV)])


class LatencyHistogram:
    """Fixed-size log-linear histogram of latencies in seconds.

    Two tiers: the octave (power of two above the 1µs floor) picks the
    coarse range, 16 linear sub-buckets inside each octave give ~6%
    resolution.  Values below the floor land in bucket 0, values beyond
    the last bucket saturate into it.  Percentile reads return the
    covering bucket's upper bound, so the estimate errs high (a
    conservative SLO check), never low.
    """

    __slots__ = ("_counts", "_count", "_sum")

    def __init__(self) -> None:
        self._counts = [0] * _BUCKETS
        self._count = 0
        self._sum = 0.0

    def record(self, seconds: float) -> None:
        self.record_many((seconds,))

    def record_many(self, samples: Sequence[float]) -> None:
        """``for s in samples: record(s)`` in one call: the same counts,
        and the same sum, added in the same order."""
        counts, total = self._counts, self._sum
        for seconds in samples:
            if seconds < 0.0:
                seconds = 0.0
            # Searching all but the last bound saturates into the last.
            counts[bisect_left(_BOUNDS, seconds, 0, _BUCKETS - 1)] += 1
            total += seconds
        self._count += len(samples)
        self._sum = total

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the *q*-quantile (q in
        [0, 1]); 0.0 when nothing was recorded."""
        if not self._count:
            return 0.0
        target = q * self._count
        seen = 0
        for index in range(_BUCKETS):
            seen += self._counts[index]
            if seen >= target:
                return _BOUNDS[index]
        return _BOUNDS[-1]

    def snapshot(self) -> dict[str, float | int]:
        return {
            "count": self._count,
            "mean_s": round(self.mean(), 6),
            "p50_s": round(self.percentile(0.50), 6),
            "p99_s": round(self.percentile(0.99), 6),
            "p999_s": round(self.percentile(0.999), 6),
        }


@dataclass
class GatewayStats:
    """Per-stage counters + latency percentiles; ``snapshot()`` is what
    the benches record.  See the module docstring for which writes
    take ``_lock``."""

    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    queue_wait_s: float = 0.0
    evaluate_s: float = 0.0
    snapshot_reads: int = 0
    writes: int = 0
    epochs_advanced: int = 0
    streams: int = 0
    stream_chunks: int = 0
    replica_reads: int = 0
    replica_writes: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram,
                                      repr=False)
    stages: dict[str, LatencyHistogram] = field(default_factory=dict,
                                                repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def stage(self, name: str) -> LatencyHistogram:
        """Histogram for a named pipeline stage, created on first use.
        Not locked: the loop thread and callers already inside ``with
        stats._lock`` use it."""
        histogram = self.stages.get(name)
        if histogram is None:
            histogram = self.stages[name] = LatencyHistogram()
        return histogram

    def snapshot(self) -> dict[str, int | float]:
        with self._lock:
            out: dict[str, int | float] = {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "completed": self.completed,
                "failed": self.failed,
                "batches": self.batches,
                "queue_wait_s": round(self.queue_wait_s, 6),
                "evaluate_s": round(self.evaluate_s, 6),
                "snapshot_reads": self.snapshot_reads,
                "writes": self.writes,
                "epochs_advanced": self.epochs_advanced,
                "streams": self.streams,
                "stream_chunks": self.stream_chunks,
                "replica_reads": self.replica_reads,
                "replica_writes": self.replica_writes,
            }
            out.update({f"latency_{k}": v
                        for k, v in self.latency.snapshot().items()})
            # Stage keys appear only once a stage has recorded, so a
            # fresh snapshot's key set stays pinned.
            for name in sorted(self.stages):
                out.update({f"stage_{name}_{k}": v
                            for k, v in self.stages[name].snapshot().items()})
            return out

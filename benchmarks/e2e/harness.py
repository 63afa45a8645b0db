"""Calibrated slice loop: the estimator that repeats on a drifting host.

On a shared host the same pure-Python work takes 1x to 3x as long from
one moment to the next: in phases of seconds, and in bursts of
milliseconds.  Whole-run wall throughput therefore does not repeat (the
same code read 35k to 109k ops/s in six runs).  Two things make the
numbers here repeat:

* every timed slice is *short* (a closed burst of ~10 ms, an open-loop
  segment of ~25 ms) and is bracketed by runs of a fixed ~2.5 ms
  reference kernel; every time is reported as

      measured x CAL_REF_S / mean(kernel time before, kernel time after)

  i.e. as the time the slice would have taken on a host where the
  kernel takes exactly ``CAL_REF_S``.  A bracket of 15 ms kernels
  around a 100 ms burst left 11% scatter per slice, because the
  interference is faster than that; a tight bracket leaves 7%;
* a run takes hundreds of slices and reports medians, which discard
  the slices an interference burst fell into.

Wall times are scaled by the kernel's wall time, CPU times by the
kernel's CPU time.  What this does not cancel is stated in README.md.
"""

from __future__ import annotations

import asyncio
import collections
import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

#: The kernel time every measurement is normalised to (seconds).
CAL_REF_S = 0.0025
#: Loop count of the reference kernel: ~2.5 ms on the host this was
#: sized on.  Frozen — changing it changes every calibrated number.
KERNEL_ROUNDS = 490
#: Slices per round.  Requests are generated before a round and the
#: sampled outputs checked after it, so nothing untimed runs between
#: the slices of a round and each kernel run closes one slice and
#: opens the next.
ROUND_SLICES = 16

perf_counter = time.perf_counter
process_time = time.process_time


class _Node:
    __slots__ = ("tag", "children", "value")

    def __init__(self, tag: str, value: int) -> None:
        self.tag = tag
        self.children: list[_Node] = []
        self.value = value

    def add(self, child: "_Node") -> "_Node":
        self.children.append(child)
        return child

    def total(self) -> int:
        return self.value + sum(child.total() for child in self.children)


_kernel_lock = threading.Lock()


def reference_kernel() -> tuple[float, float]:
    """Run the fixed kernel once; return its (wall, cpu) seconds.

    The kernel allocates small object trees, calls methods on them,
    recurses over them and keeps an LRU under a lock — the interpreter
    work the serving path is made of.  What it is made of matters:
    host interference does not slow all Python alike.  Three candidates
    were run beside the bursts of every workload over minutes of host
    phases: a tight loop of dict probes, arithmetic and string
    formatting; this one; and a stack walk over a 20 MB object graph.
    In one phase a 14 KB document walk slowed 1.5x, the tight loop
    1.24x, this kernel 1.37x.  Quartile spread of `ops_s` over six runs
    of each workload (authz_hot / read_stream / write_durable /
    mixed_rw): tight loop 1.1 / 3.0 / 5.0 / 2.8%, graph walk 1.3 / 3.7 /
    5.6 / 2.5%, all three together 1.2 / 2.4 / 3.9 / 3.1%, this one
    0.9 / 1.2 / 4.3 / 2.3%.
    """
    wall = perf_counter()
    cpu = process_time()
    lru: collections.OrderedDict = collections.OrderedDict()
    acc = 0
    for i in range(KERNEL_ROUNDS):
        root = _Node("r", i)
        for j in range(3):
            root.add(_Node("c", j)).add(_Node("l", i ^ j))
        acc += root.total()
        key = (i * 40503) & 511
        with _kernel_lock:
            if key in lru:
                lru.move_to_end(key)
            else:
                lru[key] = (root, acc)
                if len(lru) > 64:
                    lru.popitem(last=False)
    if not acc:
        raise RuntimeError("reference kernel produced nothing")
    return perf_counter() - wall, process_time() - cpu


def calibrated(measured: float, before: float, after: float,
               idle: float = 0.0) -> float:
    """*measured* seconds rescaled to the reference host.

    *idle* seconds of it the process spent waiting (for the WAL
    flusher's linger and wake-up); a faster host would not shorten
    those, so they are carried over unscaled.
    """
    return idle + (measured - idle) * CAL_REF_S / ((before + after) / 2.0)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list (q in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Slice:
    """Raw timings of one ``[k] closed burst [k] open segment [k]``."""

    kernels: tuple[tuple[float, float], ...]   # three (wall, cpu) pairs
    closed_ops: int
    closed_wall: float
    closed_cpu: float
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    kinds: str = ""   # one letter per latency where a workload mixes ops


def summarise(slices: list[Slice]) -> dict[str, float]:
    """Calibrated and raw summary statistics over *slices*."""
    ops_s, raw_ops_s, cpu_us, latencies, raw_latencies = [], [], [], [], []
    lateness, kernel_walls = [], []
    by_kind: dict[str, list[float]] = {}
    closed_calibrated = 0.0
    for item in slices:
        (w0, c0), (w1, c1), (w2, _) = item.kernels
        kernel_walls += [w0, w1, w2]
        idle = max(0.0, item.closed_wall - item.closed_cpu)
        closed = calibrated(item.closed_wall, w0, w1, idle)
        closed_calibrated += closed
        ops_s.append(item.closed_ops / closed)
        raw_ops_s.append(item.closed_ops / item.closed_wall)
        cpu_us.append(calibrated(item.closed_cpu, c0, c1)
                      / item.closed_ops * 1e6)
        # A request of the open segment waits the share of its time
        # that the closed burst beside it did.
        waiting = idle / item.closed_wall
        scale = waiting + (1.0 - waiting) * CAL_REF_S / ((w1 + w2) / 2.0)
        latencies += [value * scale for value in item.latencies]
        for kind, value in zip(item.kinds, item.latencies):
            by_kind.setdefault(kind, []).append(value * scale)
        raw_latencies += item.latencies
        lateness += item.lateness
    return {
        "ops_s": statistics.median(ops_s),
        "cpu_us_per_op": statistics.median(cpu_us),
        "lat_p50_ms": statistics.median(latencies) * 1e3,
        "lat_p90_ms": quantile(latencies, 0.90) * 1e3,
        "lat_p99_ms": quantile(latencies, 0.99) * 1e3,
        "kind_lat_p50_ms": {kind: statistics.median(values) * 1e3
                            for kind, values in by_kind.items()},
        "raw_ops_s": statistics.median(raw_ops_s),
        "raw_lat_p50_ms": statistics.median(raw_latencies) * 1e3,
        "gen_late_p99_ms": quantile(lateness, 0.99) * 1e3,
        "cal_ms_p50": statistics.median(kernel_walls) * 1e3,
        "cal_spread": max(kernel_walls) / min(kernel_walls),
        "slices": len(slices),
        "closed_wall_s": sum(item.closed_wall for item in slices),
        "closed_calibrated_s": closed_calibrated,
        "raw_cpu_us_per_op": statistics.median(
            item.closed_cpu / item.closed_ops for item in slices) * 1e6,
        "closed_ops": sum(item.closed_ops for item in slices),
    }


class Laps:
    """Calibrated stopwatch for set-up: the workload calls it at each
    boundary of its set-up (a compile, every few documents loaded), the
    kernel runs there, and each lap is rescaled by its own bracket —
    a one-second set-up bracketed only at its ends would not be."""

    def __init__(self) -> None:
        self.total = 0.0
        self.raw = 0.0
        self.kernel = reference_kernel()[0]
        self.started = perf_counter()

    def __call__(self) -> None:
        elapsed = perf_counter() - self.started
        kernel = reference_kernel()[0]
        self.raw += elapsed
        self.total += calibrated(elapsed, self.kernel, kernel)
        self.kernel = kernel
        self.started = perf_counter()


def timed_setup(workload, tracer=None):
    """Build the program's serving stack once; return it with the
    calibrated and the raw set-up time."""
    laps = Laps()
    stack = workload.setup(tracer, laps)
    laps()
    return stack, laps.total, laps.raw


async def until(due: float) -> None:
    """Return at *due* (perf_counter seconds), not a timer tick later.

    The selector rounds timeouts up to a millisecond, so the last two
    are spent yielding to the loop instead of sleeping.
    """
    while True:
        remaining = due - perf_counter()
        if remaining <= 0:
            return
        await asyncio.sleep(remaining - 0.002 if remaining > 0.003 else 0)


async def run_round(workload, gateway, tracer=None) -> list[Slice]:
    """``ROUND_SLICES`` slices back to back, then the round's oracles."""
    closed = workload.requests(workload.closed_ops * ROUND_SLICES)
    opened = workload.requests(workload.open_ops * ROUND_SLICES)
    slices = []
    k0 = reference_kernel()
    for index in range(ROUND_SLICES):
        burst = closed[index * workload.closed_ops:
                       (index + 1) * workload.closed_ops]
        segment = opened[index * workload.open_ops:
                         (index + 1) * workload.open_ops]
        if tracer is not None:
            tracer.on = True
        cpu = process_time()
        wall = perf_counter()
        await workload.closed(gateway, burst)
        closed_wall = perf_counter() - wall
        closed_cpu = process_time() - cpu
        if tracer is not None:
            tracer.on = False
        k1 = reference_kernel()
        latencies, lateness = await workload.open(
            gateway, segment, k1[0] / CAL_REF_S)
        k2 = reference_kernel()
        kinds = "".join(item[0] for item in segment) \
            if workload.uses_store else ""
        slices.append(Slice((k0, k1, k2), len(burst), closed_wall,
                            closed_cpu, latencies, lateness, kinds))
        k0 = k2
    await workload.check(gateway)
    return slices


async def measure(workload, gateway, seconds: float, min_rounds: int,
                  tracer=None) -> list[Slice]:
    """Warm up, freeze the heap, then run rounds for *seconds* (and at
    least *min_rounds* of them)."""
    if not workload.quick:
        for _ in range(workload.warmup_bursts):
            await workload.closed(gateway, workload.requests(
                workload.closed_ops * ROUND_SLICES))
        await run_round(workload, gateway)
    # Set-up garbage is collected once and the survivors frozen so the
    # collector (left on) scans only what the slices allocate.
    gc.collect()
    gc.freeze()
    slices: list[Slice] = []
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < min_rounds or perf_counter() < deadline:
        slices += await run_round(workload, gateway, tracer)
        rounds += 1
        if rounds == min_rounds:
            # Read where every run has done the same work: what the
            # log, the replicas and the caches retain per operation
            # shows, how many operations this host got through doesn't.
            workload.rss_mb = peak_rss_mb()
    return slices


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

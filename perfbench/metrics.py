"""Shared measurement helpers: percentiles, output records, counts, memory."""

from __future__ import annotations

import hashlib
import json
import math
import re
import resource
import statistics
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Metric names must match this (they are cited verbatim by later changes).
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics (host time), the same on every workload: name -> unit.
END_TO_END = {
    "sweep_s": "s",
    "spec_p50_s": "s",
    "spec_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_TIMING = [
    (f"{layer}.{kind}", unit, "lower")
    for layer in ("sim", "machine", "cpu", "mem", "noc", "wireless", "core", "sync", "runner")
    for kind, unit in (("calls", "count"), ("self_s", "s"), ("share", "fraction"))
]

_PATH_TIMING = [
    (f"{prefix}.{kind}", "s", "lower")
    for prefix in ("runner.serial", "runner.distributed", "service.submit", "runner.cache_warm")
    for kind in ("wall_s", "first_result_s", "teardown_s", "overhead_s")
]

#: Per-layer metrics of the traced run: (name, unit, better).  Counts come
#: from the simulator's own statistics and repeat exactly for a seed.
PER_LAYER = _LAYER_TIMING + [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("mem.accesses", "count", "lower"),
    ("mem.miss_ratio", "fraction", "lower"),
    ("mem.invalidations", "count", "lower"),
    ("dram.accesses", "count", "lower"),
    ("noc.messages", "count", "lower"),
    ("noc.flit_cycles", "cycles", "lower"),
    ("wireless.messages", "count", "lower"),
    ("wireless.collisions", "count", "lower"),
    ("wireless.success_ratio", "fraction", "higher"),
    ("wireless.busy_cycles", "cycles", "lower"),
    ("bm.writes_applied", "count", "lower"),
    ("tone.activations", "count", "lower"),
    ("model.sim_cycles", "cycles", "lower"),
] + _PATH_TIMING + [
    ("runner.cache_warm.hit_ratio", "fraction", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {**END_TO_END, **{name: unit for name, unit, _ in PER_LAYER}}

#: The ``host_paths`` metrics, reported as 0 on the in-process workloads,
#: which never start the CLI.
PATH_METRICS = [name for name, _, _ in _PATH_TIMING] + ["runner.cache_warm.hit_ratio"]

#: Candidate tail percentiles, highest last.  A fixed ladder keeps the
#: reported percentile the same from run to run.
TAIL_LADDER = (50, 75, 90, 95, 99)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(count: int, percentile: float) -> int:
    """1-based nearest-rank index of ``percentile`` among ``count`` samples."""
    return max(1, math.ceil(percentile / 100.0 * count))


def tail_percentile(count: int) -> int:
    """The highest ladder percentile leaving >= 10 of ``count`` samples beyond it."""
    best = None
    for percentile in TAIL_LADDER:
        if count - nearest_rank(count, percentile) >= TAIL_BEYOND:
            best = percentile
    if best is None:
        raise ValueError(
            f"{count} samples leave fewer than {TAIL_BEYOND} beyond any tail percentile"
        )
    return best


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` (continued fraction, Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    value = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * value


def percentile_value(samples: Sequence[float], percentile: float) -> float:
    """Harrell-Davis estimate of ``percentile`` of ``samples``.

    A beta-weighted mean of all order statistics, peaked at the percentile's
    rank.  The grids mix grid points of very different sizes, so the plain
    order statistic at a rank jumps between clusters of sizes from run to
    run; the weighted estimate moves smoothly.
    """
    ordered = sorted(samples)
    count = len(ordered)
    q = percentile / 100.0
    a, b = q * (count + 1), (1.0 - q) * (count + 1)
    cdf = [_betainc(a, b, i / count) for i in range(count + 1)]
    return sum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb(kilobytes: int) -> float:
    """``ru_maxrss`` (kilobytes on Linux) in megabytes."""
    return kilobytes / 1024.0


def self_peak_rss_mb() -> float:
    return peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ----------------------------------------------------------------- outputs
def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def output_record(result) -> Dict[str, Any]:
    """The simulated outputs of one grid point that a pass is checked on."""
    return {
        "total_cycles": result.total_cycles,
        "events_processed": result.events_processed,
        "thread_cycles": list(result.thread_cycles),
        "stats_digest": hashlib.sha256(
            _canonical(result.stats.to_dict()).encode("utf-8")
        ).hexdigest(),
    }


def outputs_digest(records: Dict[str, Dict[str, Any]]) -> str:
    """One digest over every grid point's output record (label-keyed)."""
    return hashlib.sha256(_canonical(records).encode("utf-8")).hexdigest()


def output_problem(result) -> str:
    """Why a result is unusable regardless of expectations ('' when fine)."""
    if not result.completed:
        return "completed=False"
    if result.finished_threads != result.total_threads:
        return f"{result.finished_threads}/{result.total_threads} threads finished"
    if result.thread_cycles and max(result.thread_cycles) > result.total_cycles:
        return "a thread ran longer than the whole simulation"
    return ""


def mismatched(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Fields of an output record that differ from the expected record."""
    return [key for key in expected if expected[key] != actual.get(key)]


# ------------------------------------------------------------------ counts
#: Per-layer counters, summed over a pass, from ``SimResult.stats``.
def layer_counts(results: Sequence[Any]) -> Dict[str, float]:
    counter = _counter_sum(results)
    reads, writes = counter("mem/reads"), counter("mem/writes")
    misses = counter("mem/read_misses") + counter("mem/write_misses")
    messages, collisions = counter("wireless/messages"), counter("wireless/collisions")
    return {
        "sim.events": sum(r.events_processed for r in results),
        "mem.accesses": reads + writes + counter("mem/atomics"),
        "mem.miss_ratio": misses / (reads + writes) if reads + writes else 0.0,
        "mem.invalidations": counter("mem/invalidations"),
        "dram.accesses": counter("dram/accesses"),
        "noc.messages": counter("noc/messages"),
        "noc.flit_cycles": counter("noc/flit_cycles"),
        "wireless.messages": messages,
        "wireless.collisions": collisions,
        "wireless.success_ratio": (
            messages / (messages + collisions) if messages + collisions else 0.0
        ),
        "wireless.busy_cycles": sum(r.data_channel_busy_cycles for r in results),
        "bm.writes_applied": counter("bm/writes_applied"),
        "tone.activations": counter("tone/activations"),
        "model.sim_cycles": sum(r.total_cycles for r in results),
    }


def _counter_sum(results: Sequence[Any]):
    def counter(name: str) -> int:
        return sum(r.stats.counter_value(name) for r in results)

    return counter


def pass_seconds(passes: Sequence[Sequence[float]]) -> float:
    """The time of one pass: each grid point's median time across ``passes``
    (one list of per-point times each), summed.

    A median per grid point rather than per pass drops a burst of host
    interference that slowed part of one pass.
    """
    return sum(map(median, zip(*passes)))


def timing_summary(samples: Sequence[float], percentile: int) -> Tuple[float, float, int]:
    """(p50, tail value, samples beyond the tail's rank) of per-grid-point times."""
    rank = nearest_rank(len(samples), percentile)
    return (
        percentile_value(samples, 50),
        percentile_value(samples, percentile),
        len(samples) - rank,
    )

"""Statistics collection for the timing models.

The registry is intentionally simple: named counters, histograms, and
time-weighted utilization trackers.  Experiments read these to produce the
paper's tables (e.g. Table 5 reports Data-channel utilization as a percentage
of total cycles).

The stat objects are flyweights: hot-path models call
``registry.counter(name)`` **once at construction** and keep the returned
handle, so recording a sample is a single attribute update with no
string-keyed lookup.  Because handles may be bound eagerly (before any event
touches them), :meth:`StatsRegistry.snapshot` and
:meth:`StatsRegistry.to_dict` skip stats that never recorded anything —
results are therefore independent of when (or whether) a model bound its
handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AnalysisError, SimulationError


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Streaming histogram with mean/min/max/percentile support.

    Percentile queries sort the samples; the sorted view is cached and
    invalidated by :meth:`record`, so repeated percentile queries between
    records cost one sort total.
    """

    __slots__ = ("name", "samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self.samples.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, fraction: float) -> float:
        """Return the ``fraction`` (0..1) percentile of recorded samples."""
        if not self.samples:
            return 0.0
        ordered = self._sorted
        if ordered is None or len(ordered) != len(self.samples):
            ordered = self._sorted = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
        return ordered[index]


class UtilizationTracker:
    """Tracks how many cycles a shared resource was busy.

    Used for the wireless Data channel (Table 5) and for NoC links.
    """

    __slots__ = ("name", "busy_cycles", "busy_intervals")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_cycles: int = 0
        self.busy_intervals: int = 0

    def add_busy(self, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError("busy cycles must be non-negative")
        self.busy_cycles += cycles
        self.busy_intervals += 1

    def utilization(self, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` the resource was busy."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)


@dataclass
class StatsRegistry:
    """Container for all statistics produced by one simulation run."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    utilizations: Dict[str, UtilizationTracker] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def utilization(self, name: str) -> UtilizationTracker:
        if name not in self.utilizations:
            self.utilizations[name] = UtilizationTracker(name)
        return self.utilizations[name]

    def counter_value(self, name: str, default: int = 0) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def snapshot(self) -> Dict[str, float]:
        """Flatten all statistics into a plain dictionary for reporting.

        Stats that never recorded anything (zero counters, empty histograms,
        trackers with no busy intervals) are omitted: they are artifacts of
        eagerly bound flyweight handles, and omitting them keeps snapshots
        identical whether handles were bound eagerly or on first use.
        """
        flat: Dict[str, float] = {}
        for name, counter in self.counters.items():
            if counter.value:
                flat[f"counter/{name}"] = counter.value
        for name, histogram in self.histograms.items():
            if histogram.samples:
                flat[f"hist/{name}/count"] = histogram.count
                flat[f"hist/{name}/mean"] = histogram.mean
        for name, tracker in self.utilizations.items():
            if tracker.busy_intervals:
                flat[f"util/{name}/busy_cycles"] = tracker.busy_cycles
        return flat

    def to_dict(self) -> Dict[str, object]:
        """Serialize every statistic (JSON-safe; inverse of :meth:`from_dict`).

        Histogram samples are stored in full so reconstructed registries
        answer mean/percentile queries identically to the originals — the
        property sweeps rely on when results cross a process boundary or
        come back from the on-disk cache.  Untouched stats are skipped for
        the same reason they are skipped in :meth:`snapshot`.
        """
        return {
            "counters": {
                name: counter.value for name, counter in self.counters.items() if counter.value
            },
            "histograms": {
                name: list(hist.samples) for name, hist in self.histograms.items() if hist.samples
            },
            "utilizations": {
                name: {"busy_cycles": t.busy_cycles, "busy_intervals": t.busy_intervals}
                for name, t in self.utilizations.items()
                if t.busy_intervals
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StatsRegistry":
        """Rebuild a registry serialized with :meth:`to_dict`."""
        registry = cls()
        for name, value in (payload.get("counters") or {}).items():
            registry.counter(name).add(int(value))
        for name, samples in (payload.get("histograms") or {}).items():
            registry.histogram(name).samples = [float(s) for s in samples]
        for name, entry in (payload.get("utilizations") or {}).items():
            tracker = registry.utilization(name)
            tracker.busy_cycles = int(entry["busy_cycles"])
            tracker.busy_intervals = int(entry["busy_intervals"])
        return registry


def geometric_mean(values: List[float]) -> float:
    """Geometric mean used throughout the paper's evaluation section."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise AnalysisError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: List[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)

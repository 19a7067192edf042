"""Results of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.stats import StatsRegistry


@dataclass
class SimResult:
    """Summary of a completed (or truncated) simulation."""

    config_name: str
    num_cores: int
    total_cycles: int
    thread_cycles: List[int]
    thread_results: List[Any]
    stats: StatsRegistry
    finished_threads: int
    total_threads: int
    extra: Dict[str, float] = field(default_factory=dict)
    #: False when the run was truncated (``max_cycles``) before every thread
    #: finished, letting sweeps distinguish converged runs from partial ones.
    completed: bool = True
    #: Discrete events the engine fired for this run; the numerator of
    #: events/sec (the ``events_per_sec`` column of ``repro report --json``
    #: frames and perfbench's ``sim.events_per_s``).
    events_processed: int = 0

    # ------------------------------------------------------------ durations
    @property
    def max_thread_cycles(self) -> int:
        return max(self.thread_cycles) if self.thread_cycles else 0

    @property
    def mean_thread_cycles(self) -> float:
        if not self.thread_cycles:
            return 0.0
        return sum(self.thread_cycles) / len(self.thread_cycles)

    # ----------------------------------------------------------- wireless
    @property
    def wireless_messages(self) -> int:
        return self.stats.counter_value("wireless/messages")

    @property
    def wireless_collisions(self) -> int:
        return self.stats.counter_value("wireless/collisions")

    @property
    def data_channel_busy_cycles(self) -> int:
        tracker = self.stats.utilizations.get("wireless/data_channel")
        return tracker.busy_cycles if tracker is not None else 0

    def data_channel_utilization(self) -> float:
        """Fraction of total cycles the Data channel was busy (Table 5)."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.data_channel_busy_cycles / self.total_cycles)

    def mean_transfer_latency(self) -> float:
        """Average Data-channel transfer latency in cycles (Section 7.4)."""
        histogram = self.stats.histograms.get("wireless/transfer_latency")
        return histogram.mean if histogram is not None else 0.0

    # ------------------------------------------------------------ reporting
    def summary(self) -> Dict[str, float]:
        return {
            "config": self.config_name,
            "cores": self.num_cores,
            "cycles": self.total_cycles,
            "wireless_messages": self.wireless_messages,
            "wireless_collisions": self.wireless_collisions,
            "data_channel_utilization": round(self.data_channel_utilization(), 4),
            **self.extra,
        }

    def speedup_over(self, other: "SimResult") -> float:
        """Execution-time speedup of this run relative to ``other``."""
        from repro.analysis.metrics import speedup

        return speedup(other.total_cycles, self.total_cycles, default=0.0)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe serialization (inverse of :meth:`from_dict`).

        Includes the full stats snapshot so results survive the process
        boundary of the parallel executor and the on-disk result cache.
        ``thread_results`` are normalized to JSON types (tuples become
        lists) so a round trip is value-identical to a JSON reload.
        """
        return {
            "config_name": self.config_name,
            "num_cores": self.num_cores,
            "total_cycles": self.total_cycles,
            "thread_cycles": list(self.thread_cycles),
            "thread_results": [_jsonify(value) for value in self.thread_results],
            "finished_threads": self.finished_threads,
            "total_threads": self.total_threads,
            "extra": dict(self.extra),
            "completed": self.completed,
            "events_processed": self.events_processed,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            config_name=payload["config_name"],
            num_cores=int(payload["num_cores"]),
            total_cycles=int(payload["total_cycles"]),
            thread_cycles=[int(c) for c in payload["thread_cycles"]],
            thread_results=list(payload["thread_results"]),
            stats=StatsRegistry.from_dict(payload.get("stats") or {}),
            finished_threads=int(payload["finished_threads"]),
            total_threads=int(payload["total_threads"]),
            extra=dict(payload.get("extra") or {}),
            completed=bool(payload.get("completed", True)),
            events_processed=int(payload.get("events_processed", 0)),
        )


def _jsonify(value: Any) -> Any:
    """Coerce a thread result into the value JSON serialization would yield."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value

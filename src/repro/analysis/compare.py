"""Frame-to-frame comparison with per-metric regression thresholds.

``python -m repro compare a.json b.json`` diffs two serialized
:class:`~repro.analysis.frame.MetricFrame`\\ s (written by ``repro report
--json``), joining rows on their shared dimension columns and checking
per-metric regression thresholds through :func:`compare_frames`.

Direction matters: cycles regress *up*, events/sec regresses *down*.
Metrics listed in :data:`HIGHER_IS_BETTER` (or prefixed accordingly) gate on
drops; everything else gates on increases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.frame import FRAME_FORMAT, MetricFrame
from repro.analysis.tables import format_table
from repro.errors import AnalysisError

#: Metrics where a larger value is an improvement; all other numeric metrics
#: are treated as costs (larger is worse).
HIGHER_IS_BETTER = frozenset(
    {"events_per_sec", "ops_per_kcycle", "speedup", "throughput", "operations",
     "finished_threads", "total_threads"}
)

#: Metrics that are bookkeeping, not gateable quantities; excluded from the
#: default comparison set (an explicit --metrics still selects them).
_NEVER_GATED = frozenset(
    {"completed", "cached", "finished_threads", "total_threads"}
)

#: Wall-clock metrics vary run to run even on one machine; the blanket
#: ``default_threshold`` skips them (an explicit per-metric threshold still
#: gates them when a caller really wants that).
NOISY_METRICS = frozenset({"wall_seconds"})


def metric_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` — which way ``name`` improves."""
    if name in HIGHER_IS_BETTER or name.endswith("_per_sec") or name.startswith("speedup"):
        return "higher"
    return "lower"


@dataclass(frozen=True)
class MetricDelta:
    """One (row, metric) pair present in both frames."""

    metric: str
    key: Tuple[Any, ...]
    baseline: float
    candidate: float

    @property
    def change(self) -> float:
        """Signed worsening fraction: positive means the candidate regressed.

        A zero baseline has no finite relative change: any movement away
        from it is reported as +/-inf so a regression from zero (e.g. the
        baseline had no collisions, the candidate has hundreds) trips every
        finite threshold instead of masquerading as 0%.
        """
        higher_is_better = metric_direction(self.metric) == "higher"
        if self.baseline == 0:
            if self.candidate == 0:
                return 0.0
            worsened = (self.candidate < 0) if higher_is_better else (self.candidate > 0)
            return float("inf") if worsened else float("-inf")
        drift = (self.candidate - self.baseline) / abs(self.baseline)
        return -drift if higher_is_better else drift


@dataclass
class FrameComparison:
    """Outcome of :func:`compare_frames`."""

    dims: Tuple[str, ...]
    deltas: List[MetricDelta]
    thresholds: Dict[str, float]
    failures: List[str] = field(default_factory=list)
    baseline_only: int = 0
    candidate_only: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def worst(self, metric: str) -> Optional[MetricDelta]:
        candidates = [delta for delta in self.deltas if delta.metric == metric]
        return max(candidates, key=lambda delta: delta.change) if candidates else None

    def metrics(self) -> List[str]:
        seen: List[str] = []
        for delta in self.deltas:
            if delta.metric not in seen:
                seen.append(delta.metric)
        return seen

    def to_dict(self) -> Dict[str, Any]:
        return {
            "joined_on": list(self.dims),
            "rows_baseline_only": self.baseline_only,
            "rows_candidate_only": self.candidate_only,
            "thresholds": dict(self.thresholds),
            "failures": list(self.failures),
            "metrics": {
                metric: {
                    "worst_key": list(worst.key),
                    "baseline": worst.baseline,
                    "candidate": worst.candidate,
                    "worst_change": worst.change,
                    "direction": metric_direction(metric),
                    "threshold": self.thresholds.get(metric),
                }
                for metric in self.metrics()
                for worst in (self.worst(metric),)
            },
        }

    def render(self) -> str:
        headers = ["metric", "dir", "rows", "worst change", "baseline", "candidate", "threshold", "status"]
        rows: List[List[Any]] = []
        for metric in self.metrics():
            worst = self.worst(metric)
            count = sum(1 for delta in self.deltas if delta.metric == metric)
            threshold = self.thresholds.get(metric)
            gated = threshold is not None
            status = "-"
            if gated:
                status = "FAIL" if worst.change > threshold else "ok"
            rows.append([
                metric,
                metric_direction(metric),
                count,
                f"{worst.change * 100:+.1f}%",
                worst.baseline,
                worst.candidate,
                f"{threshold * 100:.0f}%" if gated else "-",
                status,
            ])
        lines = [format_table(headers, rows, title=f"compare (joined on {', '.join(self.dims)})")]
        if self.baseline_only or self.candidate_only:
            lines.append(
                f"unmatched rows: {self.baseline_only} baseline-only, "
                f"{self.candidate_only} candidate-only"
            )
        lines.extend(f"FAIL: {failure}" for failure in self.failures)
        return "\n".join(lines)


def compare_frames(
    baseline: MetricFrame,
    candidate: MetricFrame,
    metrics: Optional[Sequence[str]] = None,
    thresholds: Optional[Mapping[str, float]] = None,
    default_threshold: Optional[float] = None,
) -> FrameComparison:
    """Join two frames on their shared dimensions and diff their metrics.

    ``metrics`` defaults to every numeric metric column present in both
    frames.  A metric is *gated* when it has an entry in ``thresholds`` or
    when ``default_threshold`` is set; a gated metric fails when any joined
    row worsens by more than the threshold fraction (direction-aware).
    """
    dims = tuple(
        name for name in baseline.dimensions()
        if name in candidate.dimensions()
        and baseline.column_def(name).type == candidate.column_def(name).type
    )
    if not dims:
        raise AnalysisError("frames share no dimension columns; nothing to join on")

    def numeric_metrics(frame: MetricFrame) -> List[str]:
        return [
            name for name in frame.metrics()
            if frame.column_def(name).type in ("int", "float") and name not in _NEVER_GATED
        ]

    if metrics is None:
        candidates = numeric_metrics(candidate)
        metrics = [name for name in numeric_metrics(baseline) if name in candidates]
    else:
        for name in metrics:
            for frame in (baseline, candidate):
                if frame.column_def(name).type not in ("int", "float"):
                    raise AnalysisError(
                        f"metric {name!r} is {frame.column_def(name).type}, "
                        "not a numeric column; only int/float metrics can be compared"
                    )
    if not metrics:
        raise AnalysisError("frames share no numeric metric columns to compare")

    def keyed(frame: MetricFrame) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
        out: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for row in frame.rows():
            key = tuple(row[name] for name in dims)
            if key in out:
                raise AnalysisError(
                    f"duplicate dimension key {dict(zip(dims, key))} in frame; "
                    "aggregate with group_by before comparing"
                )
            out[key] = row
        return out

    base_rows = keyed(baseline)
    cand_rows = keyed(candidate)
    shared = [key for key in base_rows if key in cand_rows]
    if not shared:
        raise AnalysisError(
            "frames have no overlapping rows after joining on "
            f"{list(dims)} — are these results of the same sweep?"
        )

    resolved: Dict[str, float] = dict(thresholds or {})
    unknown = sorted(set(resolved) - set(metrics))
    if unknown:
        # A gate on a metric that is not being compared would silently pass
        # forever — exactly the failure mode a gate exists to prevent.
        raise AnalysisError(
            f"threshold(s) on metrics not being compared: {unknown}; "
            f"compared metrics are {sorted(metrics)} "
            "(derive the column first, or fix the --threshold/--metrics spelling)"
        )
    if default_threshold is not None:
        for name in metrics:
            if name not in NOISY_METRICS:
                resolved.setdefault(name, default_threshold)

    deltas: List[MetricDelta] = []
    for key in shared:
        for name in metrics:
            base_value = base_rows[key][name]
            cand_value = cand_rows[key][name]
            if base_value is None or cand_value is None:
                continue
            deltas.append(MetricDelta(name, key, base_value, cand_value))

    comparison = FrameComparison(
        dims=dims,
        deltas=deltas,
        thresholds=resolved,
        baseline_only=len(base_rows) - len(shared),
        candidate_only=len(cand_rows) - len(shared),
    )
    explicitly_gated = set(thresholds or {})
    for name, threshold in resolved.items():
        worst = comparison.worst(name)
        if worst is None:
            # No comparable (non-None) pairs.  An explicitly requested gate
            # that cannot check anything must not silently pass; a blanket
            # default_threshold is best-effort and skips the metric.
            if name in explicitly_gated:
                comparison.failures.append(
                    f"threshold on {name!r} but no comparable rows "
                    "(every joined pair has a missing value)"
                )
            continue
        if worst.change <= threshold:
            continue
        direction = "below" if metric_direction(name) == "higher" else "above"
        comparison.failures.append(
            f"{name} regression at {dict(zip(dims, worst.key))}: "
            f"{worst.candidate:,.1f} is {worst.change * 100:.1f}% {direction} "
            f"baseline {worst.baseline:,.1f} (allowed {threshold * 100:.0f}%)"
        )
    return comparison


# ---------------------------------------------------------------------------
# Payload loading
# ---------------------------------------------------------------------------
def frame_from_payload(payload: Any) -> MetricFrame:
    """Interpret a parsed JSON payload as a frame."""
    if not isinstance(payload, Mapping) or payload.get("format") != FRAME_FORMAT:
        raise AnalysisError(
            "unrecognized payload: expected a MetricFrame JSON object "
            f"(format={FRAME_FORMAT!r}, from 'repro report --json')"
        )
    return MetricFrame.from_json_dict(payload)


def load_frame(path: str) -> MetricFrame:
    """Load a MetricFrame JSON file from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except (OSError, ValueError) as error:
        raise AnalysisError(f"cannot read {path!r}: {error}")
    return frame_from_payload(payload)

"""Analysis layer: MetricFrame, declarative reports, comparisons, metrics.

* :mod:`repro.analysis.frame` — the typed, queryable, columnar
  :class:`MetricFrame` every results consumer is built on.
* :mod:`repro.analysis.report` — declarative :class:`Report` definitions
  (the experiment modules each declare one).
* :mod:`repro.analysis.compare` — frame diffing with per-metric regression
  thresholds (``repro compare``).
* :mod:`repro.analysis.metrics` — scalar metric functions with validated
  denominators.
* :mod:`repro.analysis.area_power` / :mod:`repro.analysis.tables` — the
  Table 4 analytical model and fixed-width text rendering.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CoreReference",
    "CORE_REFERENCES",
    "area_power_table",
    "speedup",
    "speedups_over_baseline",
    "throughput_per_kcycle",
    "cycles_per_operation",
    "Column",
    "MetricFrame",
    "Pivot",
    "frame_from_sweep",
    "Report",
    "AggregateRow",
    "FrameComparison",
    "MetricDelta",
    "compare_frames",
    "load_frame",
    "format_table",
    "render_mapping",
    "render_columns",
]

_EXPORTS = {
    "CORE_REFERENCES": "repro.analysis.area_power",
    "CoreReference": "repro.analysis.area_power",
    "area_power_table": "repro.analysis.area_power",
    "FrameComparison": "repro.analysis.compare",
    "MetricDelta": "repro.analysis.compare",
    "compare_frames": "repro.analysis.compare",
    "load_frame": "repro.analysis.compare",
    "Column": "repro.analysis.frame",
    "MetricFrame": "repro.analysis.frame",
    "Pivot": "repro.analysis.frame",
    "frame_from_sweep": "repro.analysis.frame",
    "cycles_per_operation": "repro.analysis.metrics",
    "speedup": "repro.analysis.metrics",
    "speedups_over_baseline": "repro.analysis.metrics",
    "throughput_per_kcycle": "repro.analysis.metrics",
    "AggregateRow": "repro.analysis.report",
    "Report": "repro.analysis.report",
    "format_table": "repro.analysis.tables",
    "render_columns": "repro.analysis.tables",
    "render_mapping": "repro.analysis.tables",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

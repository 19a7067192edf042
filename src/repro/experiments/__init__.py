"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module declares its evaluation grid as a ``*_sweep`` function returning
a :class:`~repro.runner.spec.SweepSpec`, executed through
:class:`~repro.runner.runner.Runner` — so any figure can be fanned out over a
:class:`~repro.runner.executor.ParallelExecutor`, memoized in a
:class:`~repro.runner.cache.ResultCache`, or driven from the
``python -m repro`` CLI — and its *presentation* as a
:class:`~repro.analysis.report.Report` over the sweep's
:class:`~repro.analysis.frame.MetricFrame` (axes, derived columns, pivot,
aggregate rows).  The ``run_*`` functions keep their historical signatures
and dict shapes, but are thin wrappers over ``Report.table(sweep.frame())``;
the ``format_*`` helpers render those dicts through the same Report, so the
``python -m repro report`` path is byte-identical.  The ``benchmarks/``
directory wraps these functions with pytest-benchmark.
"""

from repro._lazy import lazy_exports

__all__ = [
    "run_fig7", "format_fig7", "fig7_sweep", "FIG7_REPORT",
    "run_fig8", "format_fig8", "fig8_sweep", "FIG8_REPORT",
    "run_fig9", "format_fig9", "fig9_sweep", "FIG9_REPORT",
    "run_fig10", "format_fig10", "fig10_sweep", "fig10_report",
    "run_fig11", "format_fig11", "fig11_sweep", "FIG11_REPORT",
    "run_table4", "format_table4", "table4_frame", "TABLE4_REPORT",
    "run_table5", "format_table5", "table5_sweep", "TABLE5_REPORT",
    "run_scenarios", "format_scenarios", "scenario_sweep",
    "scenario_frame", "scenarios_report",
]

_EXPORTS = {
    "FIG7_REPORT": "repro.experiments.fig7_tightloop",
    "fig7_sweep": "repro.experiments.fig7_tightloop",
    "format_fig7": "repro.experiments.fig7_tightloop",
    "run_fig7": "repro.experiments.fig7_tightloop",
    "format_scenarios": "repro.experiments.scenarios",
    "run_scenarios": "repro.experiments.scenarios",
    "scenario_frame": "repro.experiments.scenarios",
    "scenario_sweep": "repro.experiments.scenarios",
    "scenarios_report": "repro.experiments.scenarios",
    "FIG8_REPORT": "repro.experiments.fig8_livermore",
    "fig8_sweep": "repro.experiments.fig8_livermore",
    "format_fig8": "repro.experiments.fig8_livermore",
    "run_fig8": "repro.experiments.fig8_livermore",
    "FIG9_REPORT": "repro.experiments.fig9_cas",
    "fig9_sweep": "repro.experiments.fig9_cas",
    "format_fig9": "repro.experiments.fig9_cas",
    "run_fig9": "repro.experiments.fig9_cas",
    "fig10_report": "repro.experiments.fig10_applications",
    "fig10_sweep": "repro.experiments.fig10_applications",
    "format_fig10": "repro.experiments.fig10_applications",
    "run_fig10": "repro.experiments.fig10_applications",
    "FIG11_REPORT": "repro.experiments.fig11_sensitivity",
    "fig11_sweep": "repro.experiments.fig11_sensitivity",
    "format_fig11": "repro.experiments.fig11_sensitivity",
    "run_fig11": "repro.experiments.fig11_sensitivity",
    "TABLE4_REPORT": "repro.experiments.table4_area_power",
    "format_table4": "repro.experiments.table4_area_power",
    "run_table4": "repro.experiments.table4_area_power",
    "table4_frame": "repro.experiments.table4_area_power",
    "TABLE5_REPORT": "repro.experiments.table5_utilization",
    "format_table5": "repro.experiments.table5_utilization",
    "run_table5": "repro.experiments.table5_utilization",
    "table5_sweep": "repro.experiments.table5_utilization",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

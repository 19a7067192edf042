"""Experiment harness: one module per table/figure of the paper's evaluation.

Every module declares one :class:`~repro.experiments.common.Experiment`
record, ``EXPERIMENT``: its grid as a ``*_sweep`` function returning a
:class:`~repro.runner.spec.SweepSpec`, executed through
:class:`~repro.runner.runner.Runner` — so any figure can be fanned out over a
:class:`~repro.runner.executor.ParallelExecutor`, memoized in a
:class:`~repro.runner.cache.ResultCache`, or driven from the
``python -m repro`` CLI — its *presentation* as a
:class:`~repro.analysis.report.Report` over the sweep's
:class:`~repro.analysis.frame.MetricFrame` (axes, derived columns, pivot,
aggregate rows), and the command-line axes and ``--quick`` grid.
``repro run`` and ``repro report`` both look the record up by name with
:func:`experiment`, which imports only that experiment's module.  In Python,
``REPORT.table(runner.run(sweep).frame())`` is the experiment's table.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, List

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import Experiment

__all__ = [
    "Experiment", "experiment", "experiment_names",
    "fig7_sweep", "FIG7_REPORT",
    "fig8_sweep", "FIG8_REPORT",
    "fig9_sweep", "FIG9_REPORT",
    "fig10_sweep", "FIG10_REPORT",
    "fig11_sweep", "FIG11_REPORT",
    "table4_frame", "TABLE4_REPORT",
    "table5_sweep", "TABLE5_REPORT",
    "scenario_sweep", "scenario_frame", "SCENARIOS_REPORT", "SCENARIOS_TOTAL_REPORT",
]

_EXPORTS = {
    "Experiment": "repro.experiments.common",
    "FIG7_REPORT": "repro.experiments.fig7_tightloop",
    "fig7_sweep": "repro.experiments.fig7_tightloop",
    "FIG8_REPORT": "repro.experiments.fig8_livermore",
    "fig8_sweep": "repro.experiments.fig8_livermore",
    "FIG9_REPORT": "repro.experiments.fig9_cas",
    "fig9_sweep": "repro.experiments.fig9_cas",
    "FIG10_REPORT": "repro.experiments.fig10_applications",
    "fig10_sweep": "repro.experiments.fig10_applications",
    "FIG11_REPORT": "repro.experiments.fig11_sensitivity",
    "fig11_sweep": "repro.experiments.fig11_sensitivity",
    "TABLE4_REPORT": "repro.experiments.table4_area_power",
    "table4_frame": "repro.experiments.table4_area_power",
    "TABLE5_REPORT": "repro.experiments.table5_utilization",
    "table5_sweep": "repro.experiments.table5_utilization",
    "SCENARIOS_REPORT": "repro.experiments.scenarios",
    "SCENARIOS_TOTAL_REPORT": "repro.experiments.scenarios",
    "scenario_frame": "repro.experiments.scenarios",
    "scenario_sweep": "repro.experiments.scenarios",
}

#: Experiment name -> the module that holds its ``EXPERIMENT`` record.
_MODULES = {
    "fig7": "repro.experiments.fig7_tightloop",
    "fig8": "repro.experiments.fig8_livermore",
    "fig9": "repro.experiments.fig9_cas",
    "fig10": "repro.experiments.fig10_applications",
    "fig11": "repro.experiments.fig11_sensitivity",
    "table4": "repro.experiments.table4_area_power",
    "table5": "repro.experiments.table5_utilization",
    "scenarios": "repro.experiments.scenarios",
}


def experiment_names() -> List[str]:
    """Every experiment name, sorted."""
    return sorted(_MODULES)


def experiment(name: str) -> Experiment:
    """The :class:`~repro.experiments.common.Experiment` record named ``name``.

    Imports only that experiment's module, so a ``repro run fig7`` never
    loads the workload builders another experiment's module imports.
    """
    module = _MODULES[name]
    # __import__, not importlib.import_module: see repro._lazy.
    __import__(module)
    return sys.modules[module].EXPERIMENT


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

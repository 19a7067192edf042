"""Figure 10: speedup over Baseline for PARSEC and SPLASH-2, 64 cores.

Runs every application proxy on Baseline, Baseline+, WiSyncNoT, and WiSync
and reports the per-application speedups over Baseline plus the arithmetic
and geometric means, like the two rightmost bar groups of Figure 10.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import AggregateRow, Report, speedup_over
from repro.experiments.common import CONFIG_BUILDERS, Experiment, specs_over_configs
from repro.runner.spec import SweepSpec
from repro.workloads.synthetic_apps import application_names

#: Configurations the mean/geoMean rows cover: the Baseline column's speedup
#: is 1.0 by construction and would only dilute the means.  A configuration
#: the sweep did not run has no cells, so gets no aggregate cell either.
NON_BASELINE = tuple(label for label in CONFIG_BUILDERS if label != "Baseline")

#: Declarative presentation: per-app speedups plus mean/geoMean rows.
FIG10_REPORT = Report(
    name="fig10",
    title="Figure 10: speedup over Baseline",
    index=("app",),
    index_headers=("application",),
    series="config",
    values="speedup",
    transforms=(speedup_over("Baseline"),),
    aggregates=(
        AggregateRow("mean", "mean", series=NON_BASELINE),
        AggregateRow("geoMean", "geomean", series=NON_BASELINE),
    ),
    series_order=tuple(CONFIG_BUILDERS),
    drop_series=("Baseline",),
)


def fig10_sweep(
    apps: Optional[List[str]] = None,
    num_cores: int = 64,
    phase_scale: float = 1.0,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Figure 10 (Baseline always included)."""
    apps = apps if apps is not None else application_names()
    configs = configs if configs is not None else list(CONFIG_BUILDERS)
    if "Baseline" not in configs:
        configs = ["Baseline"] + configs
    specs = [
        spec
        for app in apps
        for spec in specs_over_configs(
            "application", {"app": app, "phase_scale": phase_scale}, num_cores, configs, seed
        )
    ]
    return SweepSpec(name="fig10", specs=tuple(specs))


#: What ``repro run fig10`` and ``repro report fig10`` read.
EXPERIMENT = Experiment(
    name="fig10",
    sweep=fig10_sweep,
    report=FIG10_REPORT,
    axes={
        "apps": "apps", "cores": "num_cores", "phase_scale": "phase_scale",
        "configs": "configs",
    },
    quick={"cores": [16], "phase_scale": 0.25},
)

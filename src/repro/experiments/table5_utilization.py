"""Table 5: Data-channel utilization of WiSyncNoT and WiSync.

The paper reports, for the most demanding applications and as a geometric
mean over all applications, the percentage of total cycles in which the Data
channel is busy, for WiSyncNoT (WT) and WiSync (W).  WiSync's utilization is
lower because barrier traffic moves to the Tone channel.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import AggregateRow, Report, derive
from repro.experiments.common import Experiment, specs_over_configs
from repro.runner.spec import SweepSpec

#: Applications the paper singles out in Table 5 (most demanding ones).
TABLE5_APPS = ["streamcluster", "radiosity", "water-ns", "fluidanimate",
               "raytrace", "ocean-c", "ocean-nc"]

TABLE5_CONFIGS = ("WiSyncNoT", "WiSync")

#: Declarative presentation: utilization percentage per app, with a clamped
#: geomean row (an application with ~0% utilization must not zero the GM).
TABLE5_REPORT = Report(
    name="table5",
    title="Table 5: Data-channel utilization (% of cycles)",
    index=("app",),
    index_headers=("application",),
    series="config",
    values="utilization_pct",
    transforms=(
        derive("utilization_pct", lambda row: 100.0 * row["data_channel_utilization"]),
    ),
    aggregates=(
        AggregateRow("GM", "geomean", series=TABLE5_CONFIGS, clamp_min=1e-6),
    ),
    series_order=TABLE5_CONFIGS,
    series_headers=(("WiSyncNoT", "WiSyncNoT (%)"), ("WiSync", "WiSync (%)")),
    filter_present=False,
    missing=0.0,
)


def table5_sweep(
    apps: Optional[List[str]] = None,
    num_cores: int = 64,
    phase_scale: float = 1.0,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Table 5 (the two WiSync configurations)."""
    apps = apps if apps is not None else TABLE5_APPS
    specs = [
        spec
        for app in apps
        for spec in specs_over_configs(
            "application",
            {"app": app, "phase_scale": phase_scale},
            num_cores,
            configs=list(TABLE5_CONFIGS),
            seed=seed,
        )
    ]
    return SweepSpec(name="table5", specs=tuple(specs))


#: What ``repro run table5`` and ``repro report table5`` read.
EXPERIMENT = Experiment(
    name="table5",
    sweep=table5_sweep,
    report=TABLE5_REPORT,
    axes={"apps": "apps", "cores": "num_cores", "phase_scale": "phase_scale"},
    quick={"cores": [16], "phase_scale": 0.25},
    fixed_configs="table5 always measures WiSyncNoT and WiSync",
)

"""Figure 11 / Table 6: sensitivity to memory and network latencies.

Runs the application proxies on the five Table 6 variants (Default, SlowNet,
SlowNet+L2, FastNet, SlowBMEM) and reports the geometric-mean speedup of
Baseline+, WiSyncNoT, and WiSync over Baseline for each variant, at 64 cores.
WiSync's advantage grows with a slower wired network and is essentially
insensitive to the BM latency.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Report, group_by, speedup_over, where
from repro.experiments.common import CONFIG_BUILDERS, Experiment, specs_over_configs
from repro.machine.configs import sensitivity_variants
from repro.runner.spec import SweepSpec

#: Representative application subset used by default to keep the sweep fast;
#: pass ``apps=application_names()`` for the full Figure 11 input set.
DEFAULT_SENSITIVITY_APPS = [
    "streamcluster", "ocean-c", "raytrace", "radiosity", "water-ns",
    "barnes", "blackscholes", "fft",
]

#: Fixed comparison columns (fig11 always runs all four configurations).
FIG11_CONFIGS = ("Baseline+", "WiSyncNoT", "WiSync")

#: Declarative presentation: per-app speedups over Baseline within each
#: Table 6 variant, geomean-aggregated per (variant, config).
FIG11_REPORT = Report(
    name="fig11",
    title="Figure 11: geometric-mean speedup over Baseline per Table 6 variant",
    index=("variant",),
    series="config",
    values="speedup_gm",
    transforms=(
        speedup_over("Baseline"),
        where(config=FIG11_CONFIGS),
        group_by(("variant", "config"), speedup_gm=("speedup", "geomean")),
    ),
    series_order=FIG11_CONFIGS,
    filter_present=False,
)


def variant_names(num_cores: int = 64) -> List[str]:
    """The Table 6 variant names, in the paper's order."""
    return list(sensitivity_variants(CONFIG_BUILDERS["Baseline"](num_cores=num_cores)))


def fig11_sweep(
    apps: Optional[List[str]] = None,
    num_cores: int = 64,
    phase_scale: float = 0.5,
    variants: Optional[List[str]] = None,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Figure 11 (all four configs per variant)."""
    apps = apps if apps is not None else DEFAULT_SENSITIVITY_APPS
    names = variants if variants is not None else variant_names(num_cores)
    specs = [
        spec
        for variant in names
        for app in apps
        for spec in specs_over_configs(
            "application",
            {"app": app, "phase_scale": phase_scale},
            num_cores,
            configs=None,
            seed=seed,
            variant=variant,
        )
    ]
    return SweepSpec(name="fig11", specs=tuple(specs))


#: What ``repro run fig11`` and ``repro report fig11`` read.
EXPERIMENT = Experiment(
    name="fig11",
    sweep=fig11_sweep,
    report=FIG11_REPORT,
    axes={
        "apps": "apps", "cores": "num_cores", "phase_scale": "phase_scale",
        "variants": "variants",
    },
    quick={"cores": [16], "phase_scale": 0.25},
    fixed_configs="fig11 always compares all four Table 2 configurations",
)

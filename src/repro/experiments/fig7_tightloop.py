"""Figure 7: TightLoop execution time versus core count.

The paper sweeps 16-256 cores and reports cycles per loop iteration for the
four configurations on a logarithmic axis.  The Baseline curve grows by
orders of magnitude with the core count while WiSync stays nearly flat
thanks to the Tone channel.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.report import Report, ratio_of
from repro.experiments.common import CONFIG_BUILDERS, Experiment, specs_over_configs
from repro.runner.spec import SweepSpec

#: Core counts of the paper's sweep.  256-core Baseline simulations are slow
#: in pure Python, so the default benchmark sweep stops at 128; pass the full
#: list explicitly to regenerate the entire figure.
DEFAULT_CORE_COUNTS = [16, 32, 64, 128]
PAPER_CORE_COUNTS = [16, 32, 64, 128, 256]

#: Declarative presentation: cycles/iteration per core count and config.
FIG7_REPORT = Report(
    name="fig7",
    title="Figure 7: TightLoop cycles/iteration",
    index=("cores",),
    series="config",
    values="cycles_per_iteration",
    transforms=(ratio_of("cycles_per_iteration", "cycles", "iterations"),),
    series_order=tuple(CONFIG_BUILDERS),
    sort_rows=True,
)


def fig7_sweep(
    core_counts: Optional[List[int]] = None,
    iterations: int = 5,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Figure 7."""
    core_counts = core_counts if core_counts is not None else DEFAULT_CORE_COUNTS
    specs = [
        spec
        for cores in core_counts
        for spec in specs_over_configs(
            "tightloop", {"iterations": iterations}, cores, configs, seed
        )
    ]
    return SweepSpec(name="fig7", specs=tuple(specs))


#: What ``repro run fig7`` and ``repro report fig7`` read.
EXPERIMENT = Experiment(
    name="fig7",
    sweep=fig7_sweep,
    report=FIG7_REPORT,
    axes={"cores": "core_counts", "iterations": "iterations", "configs": "configs"},
    quick={"cores": [8, 16], "iterations": 2},
)

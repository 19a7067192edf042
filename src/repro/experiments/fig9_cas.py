"""Figure 9: CAS throughput of the FIFO, LIFO and ADD kernels.

The paper plots successful CAS operations per 1000 cycles against the number
of instructions executed between consecutive CAS operations ("critical
section size"), for 64 and 128 cores, comparing WiSync (CAS on the BM) with
Baseline (CAS through the cache hierarchy).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.metrics import throughput_per_kcycle
from repro.analysis.report import Report, derive
from repro.experiments.common import Experiment, specs_over_configs
from repro.runner.spec import SweepSpec
from repro.workloads.cas_kernels import CasKernelKind

#: The paper only compares these two configurations for the CAS kernels,
#: because the kernels are lock-free and independent of the barrier/lock
#: implementation (Section 7.3).
CAS_CONFIGS = ["Baseline", "WiSync"]

DEFAULT_CRITICAL_SECTIONS = [4096, 256, 16]
PAPER_CRITICAL_SECTIONS = [65536, 16384, 4096, 1024, 256, 64, 16, 4]

#: Declarative presentation: successful CAS ops per kcycle.  The total
#: operation count is a *grid* quantity (successes per thread x cores), so it
#: derives from the row's own dimensions.
FIG9_REPORT = Report(
    name="fig9",
    title="Figure 9: CAS throughput per 1000 cycles",
    index=("kind", "cores", "critical_section_instructions"),
    index_headers=("kernel", "cores", "crit_section"),
    series="config",
    values="ops_per_kcycle",
    transforms=(
        derive(
            "ops_per_kcycle",
            lambda row: throughput_per_kcycle(
                row["successes_per_thread"] * row["cores"], row["cycles"]
            ),
        ),
    ),
    sort_rows=True,
)


def fig9_sweep(
    kinds: Optional[List[CasKernelKind]] = None,
    core_counts: Optional[List[int]] = None,
    critical_sections: Optional[List[int]] = None,
    successes_per_thread: int = 6,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Figure 9."""
    kinds = kinds if kinds is not None else list(CasKernelKind)
    core_counts = core_counts if core_counts is not None else [64]
    critical_sections = (
        critical_sections if critical_sections is not None else DEFAULT_CRITICAL_SECTIONS
    )
    configs = configs if configs is not None else CAS_CONFIGS
    specs = [
        spec
        for kind in kinds
        for cores in core_counts
        for crit in critical_sections
        for spec in specs_over_configs(
            "cas",
            {
                "kind": CasKernelKind(kind).value,
                "critical_section_instructions": crit,
                "successes_per_thread": successes_per_thread,
            },
            cores,
            configs,
            seed,
        )
    ]
    return SweepSpec(name="fig9", specs=tuple(specs))


#: What ``repro run fig9`` and ``repro report fig9`` read.
EXPERIMENT = Experiment(
    name="fig9",
    sweep=fig9_sweep,
    report=FIG9_REPORT,
    axes={"cores": "core_counts", "crit": "critical_sections", "configs": "configs"},
    quick={"cores": [16], "crit": [16, 256]},
)

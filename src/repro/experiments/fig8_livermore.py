"""Figure 8: Livermore loops 2, 3 and 6 versus vector length.

Six panels in the paper: loops 2/3/6 at 64 cores (top) and 128 cores
(bottom), execution time versus vector length.  The gains of the WiSync
configurations are largest at small vector lengths, where barrier overhead
dominates, and shrink as the computation grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.report import Report, derive
from repro.experiments.common import CONFIG_BUILDERS, Experiment, specs_over_configs
from repro.runner.spec import SweepSpec
from repro.workloads.livermore import LivermoreLoop

#: Vector lengths used by default (a subsample of the paper's sweep).
DEFAULT_VECTOR_LENGTHS = {
    LivermoreLoop.ICCG: [16, 256, 4096],
    LivermoreLoop.INNER_PRODUCT: [16, 256, 4096],
    LivermoreLoop.LINEAR_RECURRENCE: [16, 128, 1024],
}
PAPER_VECTOR_LENGTHS = {
    LivermoreLoop.ICCG: [16, 64, 256, 1024, 4096, 16384],
    LivermoreLoop.INNER_PRODUCT: [16, 64, 256, 1024, 4096, 16384],
    LivermoreLoop.LINEAR_RECURRENCE: [16, 32, 64, 128, 256, 512, 1024, 2048],
}

#: Declarative presentation: execution time per (loop, cores, vector length).
FIG8_REPORT = Report(
    name="fig8",
    title="Figure 8: Livermore loop execution time (cycles)",
    index=("loop", "cores", "vector_length"),
    index_headers=("loop", "cores", "vector_len"),
    series="config",
    values="total_cycles_f",
    transforms=(derive("total_cycles_f", lambda row: float(row["cycles"])),),
    series_order=tuple(CONFIG_BUILDERS),
    sort_rows=True,
)


def fig8_sweep(
    loops: Optional[List[LivermoreLoop]] = None,
    core_counts: Optional[List[int]] = None,
    vector_lengths: Optional[Dict[LivermoreLoop, List[int]]] = None,
    repetitions: int = 2,
    configs: Optional[List[str]] = None,
    seed: int = 2016,
) -> SweepSpec:
    """The declarative grid behind Figure 8."""
    loops = loops if loops is not None else list(LivermoreLoop)
    core_counts = core_counts if core_counts is not None else [64]
    vector_lengths = vector_lengths if vector_lengths is not None else DEFAULT_VECTOR_LENGTHS
    specs = [
        spec
        for loop in loops
        for cores in core_counts
        for length in vector_lengths[LivermoreLoop(loop)]
        for spec in specs_over_configs(
            "livermore",
            {"loop": int(loop), "vector_length": length, "repetitions": repetitions},
            cores,
            configs,
            seed,
        )
    ]
    return SweepSpec(name="fig8", specs=tuple(specs))


#: What ``repro run fig8`` and ``repro report fig8`` read.
EXPERIMENT = Experiment(
    name="fig8",
    sweep=fig8_sweep,
    report=FIG8_REPORT,
    axes={"cores": "core_counts", "repetitions": "repetitions", "configs": "configs"},
    quick={"cores": [16], "repetitions": 1},
)

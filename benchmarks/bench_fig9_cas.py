"""Benchmark / regeneration of Figure 9 (CAS throughput vs critical section)."""

from repro.experiments.fig9_cas import EXPERIMENT, FIG9_REPORT, PAPER_CRITICAL_SECTIONS
from repro.workloads.cas_kernels import CasKernelKind


def test_fig9_cas_throughput(benchmark, full_sweeps, runner):
    kinds = list(CasKernelKind) if full_sweeps else [CasKernelKind.ADD, CasKernelKind.FIFO]
    core_counts = [64, 128] if full_sweeps else [32]
    crits = PAPER_CRITICAL_SECTIONS if full_sweeps else [16384, 256, 16]
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,),
        kwargs={
            "kinds": kinds,
            "core_counts": core_counts,
            "critical_sections": crits,
            "successes_per_thread": 4,
        },
        rounds=1, iterations=1,
    )
    series = FIG9_REPORT.table(frame)
    print()
    print(FIG9_REPORT.render_table(series))
    for (kernel, cores, crit), row in series.items():
        assert row["WiSync"] >= row["Baseline"]
    # The gap widens as critical sections shrink (contention grows).
    for kind in kinds:
        for cores in core_counts:
            points = {crit: series[(kind.value, cores, crit)] for crit in crits}
            largest, smallest = max(crits), min(crits)
            gap_low_contention = points[largest]["WiSync"] / max(1e-9, points[largest]["Baseline"])
            gap_high_contention = points[smallest]["WiSync"] / max(1e-9, points[smallest]["Baseline"])
            assert gap_high_contention > gap_low_contention

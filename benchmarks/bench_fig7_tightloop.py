"""Benchmark / regeneration of Figure 7 (TightLoop vs core count)."""

from repro.experiments.fig7_tightloop import EXPERIMENT, FIG7_REPORT, PAPER_CORE_COUNTS


def test_fig7_tightloop_scaling(benchmark, full_sweeps, runner):
    core_counts = PAPER_CORE_COUNTS if full_sweeps else [16, 32, 64]
    iterations = 5 if full_sweeps else 3
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,),
        kwargs={"core_counts": core_counts, "iterations": iterations},
        rounds=1, iterations=1,
    )
    series = FIG7_REPORT.table(frame)
    print()
    print(FIG7_REPORT.render_table(series))
    for cores, row in series.items():
        # Paper shape: WiSync is fastest, Baseline is slowest by orders of
        # magnitude at higher core counts.
        assert row["WiSync"] < row["WiSyncNoT"]
        assert row["WiSync"] < row["Baseline+"]
        assert row["Baseline"] > 5 * row["Baseline+"]
    # Baseline degrades sharply with core count; WiSync stays nearly flat.
    low, high = min(series), max(series)
    assert series[high]["Baseline"] > 4 * series[low]["Baseline"]
    assert series[high]["WiSync"] < 4 * series[low]["WiSync"]

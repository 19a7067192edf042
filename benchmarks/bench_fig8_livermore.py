"""Benchmark / regeneration of Figure 8 (Livermore loops vs vector length)."""

from repro.experiments.fig8_livermore import EXPERIMENT, FIG8_REPORT, PAPER_VECTOR_LENGTHS
from repro.workloads.livermore import LivermoreLoop


def test_fig8_livermore_loops(benchmark, full_sweeps, runner):
    core_counts = [64, 128] if full_sweeps else [16]
    lengths = PAPER_VECTOR_LENGTHS if full_sweeps else {
        LivermoreLoop.ICCG: [64, 1024],
        LivermoreLoop.INNER_PRODUCT: [64, 4096],
        LivermoreLoop.LINEAR_RECURRENCE: [32, 256],
    }
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,),
        kwargs={"core_counts": core_counts, "vector_lengths": lengths, "repetitions": 1},
        rounds=1, iterations=1,
    )
    series = FIG8_REPORT.table(frame)
    print()
    print(FIG8_REPORT.render_table(series))
    for (loop, cores, length), row in series.items():
        # WiSync never loses to Baseline, and Baseline is the slowest config.
        assert row["WiSync"] <= row["Baseline"]
        assert row["Baseline"] >= row["Baseline+"]
    # Relative advantage shrinks as the vector (compute) grows: compare the
    # smallest and largest vector length of the inner-product loop.
    inner = {k: v for k, v in series.items() if k[0] == int(LivermoreLoop.INNER_PRODUCT)}
    small = min(inner, key=lambda k: k[2])
    large = max(inner, key=lambda k: k[2])
    gain_small = inner[small]["Baseline"] / inner[small]["WiSync"]
    gain_large = inner[large]["Baseline"] / inner[large]["WiSync"]
    assert gain_small > gain_large

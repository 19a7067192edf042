"""Benchmark / regeneration of Figure 11 / Table 6 (latency sensitivity)."""

from repro.experiments.fig11_sensitivity import EXPERIMENT, FIG11_REPORT


def test_fig11_sensitivity(benchmark, full_sweeps, runner):
    if full_sweeps:
        kwargs = {"num_cores": 64, "phase_scale": 0.5}
    else:
        kwargs = {
            "apps": ["streamcluster", "raytrace", "blackscholes"],
            "num_cores": 16,
            "phase_scale": 0.3,
        }
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,), kwargs=kwargs, rounds=1, iterations=1,
    )
    table = FIG11_REPORT.table(frame)
    print()
    print(FIG11_REPORT.render_table(table))
    # Paper shape: WiSync's advantage over Baseline grows when the wired
    # network gets slower and shrinks when it gets faster; the BM latency
    # barely matters.
    assert table["SlowNet"]["WiSync"] >= table["FastNet"]["WiSync"]
    assert abs(table["SlowBMEM"]["WiSync"] - table["Default"]["WiSync"]) < 0.35
    for variant, row in table.items():
        assert row["WiSync"] > 1.0

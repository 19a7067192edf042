"""Benchmark / regeneration of Figure 10 (application speedups over Baseline)."""

from repro.experiments.fig10_applications import EXPERIMENT, FIG10_REPORT
from repro.workloads.synthetic_apps import application_names


def test_fig10_application_speedups(benchmark, full_sweeps, runner):
    if full_sweeps:
        apps, cores, scale = application_names(), 64, 1.0
    else:
        apps = ["streamcluster", "ocean-c", "raytrace", "radiosity",
                "blackscholes", "swaptions", "barnes", "fft"]
        cores, scale = 32, 0.4
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,),
        kwargs={"apps": apps, "num_cores": cores, "phase_scale": scale},
        rounds=1, iterations=1,
    )
    table = FIG10_REPORT.table(frame)
    print()
    print(FIG10_REPORT.render_table(table))
    # Paper shape: WiSync >= 1 on (almost) every application, with the
    # barrier-heavy and lock-heavy ones clearly above 1 and the compute-bound
    # ones near 1; the geometric mean clearly exceeds 1 and WiSync is at
    # least as good as Baseline+ on average.
    assert table["streamcluster"]["WiSync"] > 1.3
    assert table["raytrace"]["WiSync"] > 1.2
    assert table["ocean-c"]["WiSync"] > 1.2
    assert 0.9 <= table["blackscholes"]["WiSync"] <= 1.35
    assert 0.9 <= table["swaptions"]["WiSync"] <= 1.35
    assert table["streamcluster"]["WiSync"] > table["blackscholes"]["WiSync"]
    assert table["geoMean"]["WiSync"] > 1.05
    assert table["geoMean"]["WiSync"] >= table["geoMean"]["Baseline+"] * 0.95

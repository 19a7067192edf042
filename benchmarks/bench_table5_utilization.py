"""Benchmark / regeneration of Table 5 (Data-channel utilization)."""

from repro.experiments.table5_utilization import EXPERIMENT, TABLE5_APPS, TABLE5_REPORT


def test_table5_data_channel_utilization(benchmark, full_sweeps, runner):
    apps = TABLE5_APPS if full_sweeps else ["streamcluster", "raytrace", "ocean-c"]
    cores = 64 if full_sweeps else 32
    scale = 1.0 if full_sweeps else 0.4
    frame = benchmark.pedantic(
        EXPERIMENT.frame, args=(runner,),
        kwargs={"apps": apps, "num_cores": cores, "phase_scale": scale},
        rounds=1, iterations=1,
    )
    table = TABLE5_REPORT.table(frame)
    print()
    print(TABLE5_REPORT.render_table(table))
    for app, row in table.items():
        # Utilization is low overall (a few percent at most), and WiSync's is
        # no higher than WiSyncNoT's because barriers move to the Tone channel.
        assert row["WiSyncNoT"] < 25.0
        assert row["WiSync"] <= row["WiSyncNoT"] + 0.5
    assert table["GM"]["WiSync"] <= table["GM"]["WiSyncNoT"]

"""Benchmark / regeneration of Table 4 (area and power comparison)."""

from repro.experiments.table4_area_power import TABLE4_REPORT, table4_frame


def test_table4_area_power(benchmark):
    table = TABLE4_REPORT.table(benchmark(table4_frame))
    print()
    print(TABLE4_REPORT.render_table(table))
    rf = table["transceiver+2antennas"]
    # Paper values: 0.14 mm^2 and 18 mW; 0.7%/0.4% of a Haswell core,
    # 5.6%/1.8% of a Silvermont core.
    assert abs(rf["area_mm2"] - 0.14) < 0.01
    assert abs(rf["power_w"] - 0.018) < 0.001
    assert abs(table["Xeon Haswell"]["rf_area_percent"] - 0.7) < 0.1
    assert abs(table["Atom Silvermont"]["rf_power_percent"] - 1.8) < 0.2

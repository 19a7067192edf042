"""Table 4: area and power of the transceiver plus two antennas.

Pure analytical model (no simulation): the Section 2 RF scaling projections
compared against the Xeon Haswell and Atom Silvermont cores at 22 nm.
"""

from __future__ import annotations

from repro.analysis.area_power import area_power_table
from repro.analysis.frame import Column, MetricFrame
from repro.analysis.report import Report
from repro.experiments.common import Experiment

#: Column layout of the analytical table's frame.
TABLE4_SCHEMA = (
    Column("item", "str", "dim"),
    Column("area_mm2", "float", "metric"),
    Column("power_w", "float", "metric"),
    Column("rf_area_percent", "float", "metric"),
    Column("rf_power_percent", "float", "metric"),
)

#: Declarative presentation: one row per item, fixed value columns; the RF
#: row's not-applicable percentage cells render as "-".
TABLE4_REPORT = Report(
    name="table4",
    title="Table 4: transceiver + 2 antennas vs 22nm cores",
    index=("item",),
    values="area_mm2",
    series=None,
    value_columns=(
        ("area_mm2", "area_mm2"),
        ("power_w", "power_w"),
        ("rf_area_percent", "rf_area_%"),
        ("rf_power_percent", "rf_power_%"),
    ),
)


def table4_frame() -> MetricFrame:
    """The analytical Table 4 numbers (22 nm, as in the paper) as a MetricFrame."""
    rows = [
        {"item": name, **columns}
        for name, columns in area_power_table().items()
    ]
    return MetricFrame.from_rows(TABLE4_SCHEMA, rows)


#: What ``repro run table4`` and ``repro report table4`` read: no grid and
#: no axes, the frame is the closed-form model's.
EXPERIMENT = Experiment(
    name="table4",
    report=TABLE4_REPORT,
    closed_form=table4_frame,
)

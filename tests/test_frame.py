"""Tests for the MetricFrame analysis API, reports, and frame comparison.

Three layers:

* property tests (hypothesis) — JSON/CSV round-trips are lossless for every
  column type, pivot/group_by obey their shape invariants;
* unit tests — relational ops, derived metrics, sweep-frame construction
  (cached flags, operation counts, param/extra name collisions), compare
  semantics and thresholds;
* a golden check — ``repro report fig7`` reproduces, byte for byte, the
  table the legacy dict-shaping code produced on the golden sweep.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.compare import compare_frames, frame_from_payload, metric_direction
from repro.analysis.frame import COLUMN_KINDS, COLUMN_TYPES, Column, MetricFrame
from repro.errors import AnalysisError
from repro.experiments.fig7_tightloop import FIG7_REPORT, fig7_sweep
from repro.experiments.scenarios import SCENARIOS_REPORT, scenario_frame, scenario_sweep
from repro.runner import ResultCache, Runner, RunSpec, SweepSpec

COMMON_SETTINGS = settings(max_examples=50, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.text(max_size=8),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(min_value=-100, max_value=100), max_size=3),
)

_VALUES_BY_TYPE = {
    "int": st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=20),
    "bool": st.booleans(),
    "json": _JSON_VALUES,
}

_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@st.composite
def frames(draw):
    """Random frames over every column type/kind, with nullable cells."""
    n_cols = draw(st.integers(min_value=1, max_value=5))
    names = draw(st.lists(_NAMES, min_size=n_cols, max_size=n_cols, unique=True))
    schema = tuple(
        Column(name, draw(st.sampled_from(COLUMN_TYPES)), draw(st.sampled_from(COLUMN_KINDS)))
        for name in names
    )
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [
        {
            column.name: draw(st.none() | _VALUES_BY_TYPE[column.type])
            for column in schema
        }
        for _ in range(n_rows)
    ]
    return MetricFrame.from_rows(schema, rows)


@st.composite
def grid_frames(draw):
    """Dense (a x b) grids with one float metric — pivot/group_by fodder."""
    a_values = draw(st.lists(st.integers(min_value=0, max_value=30),
                             min_size=1, max_size=4, unique=True))
    b_values = draw(st.lists(st.sampled_from(["w", "x", "y", "z"]),
                             min_size=1, max_size=4, unique=True))
    schema = (Column("a", "int", "dim"), Column("b", "str", "dim"),
              Column("v", "float", "metric"))
    rows = [
        {"a": a, "b": b,
         "v": draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))}
        for a in a_values for b in b_values
    ]
    return MetricFrame.from_rows(schema, rows), a_values, b_values


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------
class TestRoundTrips:
    @COMMON_SETTINGS
    @given(frames())
    def test_json_round_trip_is_lossless(self, frame):
        clone = MetricFrame.from_json(frame.to_json())
        assert clone == frame
        # Through an actual json.dumps/loads cycle too (what --json writes).
        clone2 = MetricFrame.from_json_dict(json.loads(json.dumps(frame.to_json_dict())))
        assert clone2 == frame

    @COMMON_SETTINGS
    @given(frames())
    def test_csv_round_trip_is_lossless(self, frame):
        clone = MetricFrame.from_csv(frame.to_csv())
        assert clone == frame
        assert clone.schema == frame.schema

    def test_csv_distinguishes_none_empty_and_backslash_strings(self):
        schema = (Column("s", "str", "dim"),)
        frame = MetricFrame.from_rows(
            schema, [{"s": None}, {"s": ""}, {"s": "\\N"}, {"s": "a\\b"}, {"s": "x,y\n\"q\""}]
        )
        clone = MetricFrame.from_csv(frame.to_csv())
        assert clone.column("s") == (None, "", "\\N", "a\\b", 'x,y\n"q"')

    def test_from_json_rejects_foreign_payload(self):
        with pytest.raises(AnalysisError, match="format"):
            MetricFrame.from_json_dict({"events": 1})


# ---------------------------------------------------------------------------
# Shape invariants
# ---------------------------------------------------------------------------
class TestShapeInvariants:
    @COMMON_SETTINGS
    @given(grid_frames())
    def test_pivot_covers_the_grid_exactly(self, data):
        frame, a_values, b_values = data
        pivot = frame.pivot(("a",), "b", "v")
        assert len(pivot.index_keys) == len(a_values)
        assert list(pivot.labels) == list(b_values)
        assert len(pivot.cells) == len(frame)
        table = pivot.to_dict()
        assert set(table) == set(a_values)  # scalar keys for a 1-column index
        for row in table.values():
            assert set(row) == set(b_values)

    @COMMON_SETTINGS
    @given(grid_frames())
    def test_group_by_partitions_rows(self, data):
        frame, a_values, _ = data
        grouped = frame.group_by(("a",), {"n": ("v", "count"), "total": ("v", "sum")})
        assert len(grouped) == len(a_values)
        assert list(grouped.column("a")) == list(a_values)  # first-seen order
        assert sum(grouped.column("n")) == len(frame)
        assert sum(grouped.column("total")) == pytest.approx(sum(frame.column("v")))

    @COMMON_SETTINGS
    @given(grid_frames())
    def test_where_select_preserve_schema_and_rows(self, data):
        frame, a_values, b_values = data
        picked = frame.where(a=a_values[0])
        assert len(picked) == len(b_values)
        assert picked.schema == frame.schema
        narrowed = frame.select("b", "v")
        assert narrowed.column_names == ("b", "v")
        assert len(narrowed) == len(frame)

    def test_group_by_type_preserving_aggregations(self):
        frame = small_frame()
        grouped = frame.group_by(
            ("cores",),
            {"best": ("config", "first"), "total": ("cycles", "sum"),
             "worst": ("cycles", "max")},
        )
        assert grouped.column_def("best").type == "str"
        assert grouped.column_def("total").type == "int"
        assert grouped.column("best") == ("Baseline", "Baseline")
        assert grouped.column("total") == (5000, 10500)
        assert grouped.column("worst") == (4000, 9000)

    def test_pivot_rejects_duplicate_cells(self):
        schema = (Column("a", "int", "dim"), Column("v", "float", "metric"))
        frame = MetricFrame.from_rows(schema, [{"a": 1, "v": 1.0}, {"a": 1, "v": 2.0}])
        with pytest.raises(AnalysisError, match="more than one row"):
            frame.pivot(("a",), "a", "v")


# ---------------------------------------------------------------------------
# Relational ops and derived metrics
# ---------------------------------------------------------------------------
def small_frame():
    schema = (
        Column("config", "str", "dim"), Column("cores", "int", "dim"),
        Column("cycles", "int", "metric"), Column("operations", "float", "metric"),
    )
    rows = [
        {"config": "Baseline", "cores": 16, "cycles": 4000, "operations": 10.0},
        {"config": "WiSync", "cores": 16, "cycles": 1000, "operations": 10.0},
        {"config": "Baseline", "cores": 32, "cycles": 9000, "operations": 20.0},
        {"config": "WiSync", "cores": 32, "cycles": 1500, "operations": 20.0},
    ]
    return MetricFrame.from_rows(schema, rows)


class TestOps:
    def test_speedup_over_joins_on_remaining_dims(self):
        frame = small_frame().speedup_over("Baseline")
        by_key = {(row["config"], row["cores"]): row["speedup"] for row in frame.rows()}
        assert by_key[("WiSync", 16)] == 4.0
        assert by_key[("WiSync", 32)] == 6.0
        assert by_key[("Baseline", 16)] == 1.0

    def test_speedup_over_missing_baseline_raises(self):
        frame = small_frame().where(config="WiSync")
        with pytest.raises(AnalysisError, match="no baseline"):
            frame.speedup_over("Baseline")

    def test_cycles_per_op_and_ops_per_kcycle(self):
        frame = small_frame().cycles_per_op().ops_per_kcycle()
        first = frame.row(0)
        assert first["cycles_per_op"] == 400.0
        assert first["ops_per_kcycle"] == 2.5

    def test_derive_rejects_existing_column(self):
        with pytest.raises(AnalysisError, match="already exists"):
            small_frame().derive("cycles", lambda row: 0.0)

    def test_explode_replicates_matching_rows(self):
        frame = small_frame().explode(
            "config", ["A", "B"], where=lambda row: row["config"] == "Baseline"
        )
        assert len(frame) == 6
        assert frame.unique("config") == ("A", "B", "WiSync")

    def test_sort_by_and_unique(self):
        frame = small_frame().sort_by("cycles", reverse=True)
        assert list(frame.column("cycles")) == [9000, 4000, 1500, 1000]
        assert frame.unique("cores") == (32, 16)

    def test_geomean_and_where_membership(self):
        frame = small_frame().where(config=("WiSync",))
        assert frame.geomean("operations") == pytest.approx((10.0 * 20.0) ** 0.5)

    def test_concat_requires_identical_schema(self):
        frame = small_frame()
        assert len(frame.concat(frame)) == 8
        with pytest.raises(AnalysisError, match="schema"):
            frame.concat(frame.select("config", "cycles"))


# ---------------------------------------------------------------------------
# Frames from sweeps
# ---------------------------------------------------------------------------
def tightloop_sweep():
    return SweepSpec(
        name="s",
        specs=(
            RunSpec(workload="tightloop", params={"iterations": 2},
                    config="WiSync", num_cores=8),
            RunSpec(workload="tightloop", params={"iterations": 2},
                    config="Baseline+", num_cores=8),
        ),
    )


class TestSweepFrames:
    def test_frame_rows_carry_spec_axes_and_metrics(self):
        outcome = Runner().run(tightloop_sweep())
        frame = outcome.frame()
        assert len(frame) == 2
        row = frame.row(0)
        assert row["workload"] == "tightloop"
        assert row["config"] == "WiSync"
        assert row["cores"] == 8 and row["seed"] == 2016
        assert row["iterations"] == 2
        assert row["cycles"] == outcome.result_for(tightloop_sweep().specs[0]).total_cycles
        assert row["events"] > 0
        assert row["completed"] is True and row["cached"] is False
        assert row["wall_seconds"] > 0
        assert frame.events_per_sec().row(0)["events_per_sec"] > 0

    def test_cached_flags_survive_into_the_frame(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        first = runner.run(tightloop_sweep()).frame()
        second = runner.run(tightloop_sweep()).frame()
        assert set(first.column("cached")) == {False}
        assert set(second.column("cached")) == {True}
        # Everything except provenance is identical.
        assert first.select("config", "cycles", "events") == \
            second.select("config", "cycles", "events")

    def test_scenario_frame_normalizes_cycles_per_op(self):
        sweep = scenario_sweep(
            scenarios=["rwlock"], core_counts=[8],
            configs=["Baseline", "WiSync"], contention=["low", "high"],
        )
        frame = scenario_frame(Runner().run(sweep).frame())
        # rwlock's `operations` KNOB collides with the completed-op METRIC:
        # the param moves to param_operations, the metric keeps the name.
        assert "param_operations" in frame.column_names
        for row in frame.rows():
            assert row["contention"] in ("low", "high")
            assert row["operations"] == 8 * row["param_operations"]
            assert row["cycles_per_op"] == pytest.approx(row["cycles"] / row["operations"])

    def test_truncated_runs_get_no_operations_stamp(self):
        from repro.runner.executor import execute_spec

        spec = RunSpec(workload="pc_ring", params={"items": 8, "think_cycles": 30},
                       config="WiSync", num_cores=16, max_cycles=200)
        result = execute_spec(spec)
        assert not result.completed
        # The planned count would make the cut-off run look spuriously cheap
        # per op; a truncated run must carry no completed-operations claim.
        assert "operations" not in result.extra

    def test_custom_scenario_params_render_as_custom_contention(self):
        sweep = SweepSpec(
            name="scenarios",
            specs=(
                RunSpec(workload="pc_ring", params={"items": 4, "think_cycles": 400},
                        config="WiSync", num_cores=8),
                RunSpec(workload="pc_ring", params={"items": 5, "think_cycles": 77},
                        config="WiSync", num_cores=8),
            ),
        )
        frame = scenario_frame(Runner().run(sweep).frame())
        assert set(frame.column("contention")) == {"low", "custom"}
        rendered = SCENARIOS_REPORT.render(frame, prepared=True)
        assert "custom" in rendered  # sortable alongside the preset levels

    def test_sweep_frame_round_trips_through_json_and_csv(self):
        frame = Runner().run(tightloop_sweep()).frame()
        assert MetricFrame.from_json(frame.to_json()) == frame
        assert MetricFrame.from_csv(frame.to_csv()) == frame


# ---------------------------------------------------------------------------
# compare_frames
# ---------------------------------------------------------------------------
class TestCompare:
    def test_identical_frames_pass_any_threshold(self):
        frame = small_frame()
        comparison = compare_frames(frame, frame, default_threshold=0.0)
        assert comparison.ok
        assert {delta.change for delta in comparison.deltas} == {0.0}

    def test_direction_aware_regression(self):
        base = small_frame()
        slower = MetricFrame.from_rows(
            base.schema,
            [{**row, "cycles": row["cycles"] * 2} for row in base.rows()],
        )
        comparison = compare_frames(base, slower, metrics=("cycles",),
                                    thresholds={"cycles": 0.5})
        assert not comparison.ok
        assert "cycles regression" in comparison.failures[0]
        # An *improvement* in a lower-is-better metric never fails.
        improved = compare_frames(slower, base, metrics=("cycles",),
                                  thresholds={"cycles": 0.5})
        assert improved.ok

    def test_higher_is_better_metrics_gate_on_drops(self):
        assert metric_direction("events_per_sec") == "higher"
        assert metric_direction("cycles") == "lower"
        schema = (Column("experiment", "str", "dim"), Column("events_per_sec", "float", "metric"))
        fast = MetricFrame.from_rows(schema, [{"experiment": "fig7", "events_per_sec": 1000.0}])
        slow = MetricFrame.from_rows(schema, [{"experiment": "fig7", "events_per_sec": 500.0}])
        failing = compare_frames(fast, slow, metrics=("events_per_sec",),
                                 thresholds={"events_per_sec": 0.30})
        assert not failing.ok and "below" in failing.failures[0]
        passing = compare_frames(fast, slow, metrics=("events_per_sec",),
                                 thresholds={"events_per_sec": 0.60})
        assert passing.ok

    def test_threshold_on_uncompared_metric_raises(self):
        # A typo'd gate (--threshold cyclez=0.01) must fail loudly, not pass
        # forever while appearing to guard.
        frame = small_frame()
        with pytest.raises(AnalysisError, match="cyclez"):
            compare_frames(frame, frame, thresholds={"cyclez": 0.01})
        with pytest.raises(AnalysisError, match="not being compared"):
            compare_frames(frame, frame, metrics=("cycles",),
                           thresholds={"operations": 0.01})

    def test_regression_from_zero_baseline_is_caught(self):
        schema = (Column("config", "str", "dim"), Column("collisions", "int", "metric"))
        base = MetricFrame.from_rows(schema, [{"config": "A", "collisions": 0}])
        worse = MetricFrame.from_rows(schema, [{"config": "A", "collisions": 500}])
        comparison = compare_frames(base, worse, thresholds={"collisions": 0.5})
        assert not comparison.ok
        assert comparison.worst("collisions").change == float("inf")
        # Zero staying zero is not a regression.
        assert compare_frames(base, base, thresholds={"collisions": 0.5}).ok

    def test_non_numeric_metrics_rejected_cleanly(self):
        frame = small_frame()
        with pytest.raises(AnalysisError, match="not a numeric column"):
            compare_frames(frame, frame, metrics=("config",))

    def test_thread_counts_never_fail_the_blanket_gate(self):
        # finished_threads going UP (a truncation fix) is an improvement; it
        # must not trip --max-regression, and by default it is bookkeeping
        # that the comparison skips entirely.
        schema = (Column("config", "str", "dim"),
                  Column("finished_threads", "int", "metric"),
                  Column("cycles", "int", "metric"))
        base = MetricFrame.from_rows(schema, [{"config": "A", "finished_threads": 15,
                                               "cycles": 100}])
        fixed = MetricFrame.from_rows(schema, [{"config": "A", "finished_threads": 16,
                                                "cycles": 100}])
        comparison = compare_frames(base, fixed, default_threshold=0.05)
        assert comparison.ok
        assert "finished_threads" not in comparison.metrics()
        explicit = compare_frames(base, fixed, metrics=("finished_threads",),
                                  thresholds={"finished_threads": 0.05})
        assert explicit.ok  # higher is better: an increase never regresses

    def test_explicit_gate_with_no_comparable_rows_fails(self):
        schema = (Column("config", "str", "dim"), Column("cycles_per_op", "float", "metric"))
        frame = MetricFrame.from_rows(schema, [{"config": "A", "cycles_per_op": None}])
        comparison = compare_frames(frame, frame, metrics=("cycles_per_op",),
                                    thresholds={"cycles_per_op": 0.05})
        assert not comparison.ok
        assert "no comparable rows" in comparison.failures[0]

    def test_disjoint_frames_raise(self):
        schema = (Column("experiment", "str", "dim"), Column("events_per_sec", "float", "metric"))
        a = MetricFrame.from_rows(schema, [{"experiment": "fig7", "events_per_sec": 1.0}])
        b = MetricFrame.from_rows(schema, [{"experiment": "fig8", "events_per_sec": 1.0}])
        with pytest.raises(AnalysisError, match="no overlapping rows"):
            compare_frames(a, b)

    def test_payload_autodetection(self):
        frame = small_frame()
        assert frame_from_payload(frame.to_json_dict()) == frame
        with pytest.raises(AnalysisError, match="unrecognized payload"):
            frame_from_payload({"hello": "world"})


# ---------------------------------------------------------------------------
# Golden: `repro report fig7` == the pre-refactor table, byte for byte
# ---------------------------------------------------------------------------
#: Output of the legacy (PR 3) dict-shaping fig7 pipeline on the golden
#: sweep (core_counts=[16, 32], iterations=3), captured before the
#: MetricFrame refactor.  `repro report fig7` must reproduce it exactly.
GOLDEN_FIG7_TEXT = (
    "Figure 7: TightLoop cycles/iteration\n"
    "cores  Baseline  Baseline+  WiSyncNoT  WiSync\n"
    "-----  --------  ---------  ---------  ------\n"
    "16     9,090     1,676      1,146      960   \n"
    "32     46,472    2,222      1,827      1,134 "
)

GOLDEN_FIG7_VALUES = {
    16: {"Baseline": 9089.666666666666, "Baseline+": 1675.6666666666667,
         "WiSyncNoT": 1145.6666666666667, "WiSync": 960.3333333333334},
    32: {"Baseline": 46472.0, "Baseline+": 2222.0,
         "WiSyncNoT": 1827.3333333333333, "WiSync": 1133.6666666666667},
}


class TestReportGolden:
    @pytest.fixture(scope="class")
    def fig7_frame(self):
        return Runner().run(fig7_sweep(core_counts=[16, 32], iterations=3)).frame()

    def test_report_reproduces_legacy_table_text(self, fig7_frame):
        assert FIG7_REPORT.render(fig7_frame) == GOLDEN_FIG7_TEXT

    def test_report_reproduces_legacy_values_exactly(self, fig7_frame):
        assert FIG7_REPORT.table(fig7_frame) == GOLDEN_FIG7_VALUES

    def test_legacy_format_path_agrees_with_report_path(self, fig7_frame):
        assert FIG7_REPORT.render_table(FIG7_REPORT.table(fig7_frame)) == GOLDEN_FIG7_TEXT


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
#: Files ``repro compare`` must reject with exit 2 (name -> file body).
MALFORMED_PAYLOADS = {
    "null": "null",
    "number": "3",
    "string": '"x"',
    "list": "[1, 2]",
    "no-schema": '{"format": "metricframe/v1"}',
    "schema-not-list": '{"format": "metricframe/v1", "schema": 5, "columns": {}}',
    "column-not-object": '{"format": "metricframe/v1", "schema": [5], "columns": {}}',
    "name-not-string": '{"format": "metricframe/v1", "schema": '
                       '[{"name": ["a"], "type": "int", "kind": "dim"}], "columns": {}}',
    "column-without-type": '{"format": "metricframe/v1", "schema": '
                           '[{"name": "a", "kind": "dim"}], "columns": {"a": []}}',
    "values-not-list": '{"format": "metricframe/v1", "schema": '
                       '[{"name": "a", "type": "int", "kind": "dim"}], "columns": {"a": 5}}',
}


class TestReportCompareCli:
    def _repro(self, *argv):
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env,
        )

    def test_report_renders_from_cache_and_writes_frame(self, tmp_path):
        cache = str(tmp_path / "cache")
        out = tmp_path / "frame.json"
        csv_out = tmp_path / "frame.csv"
        first = self._repro(
            "report", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync,Baseline+", "--cache", cache,
            "--json", str(out), "--csv", str(csv_out),
        )
        assert first.returncode == 0, first.stderr
        assert "Figure 7: TightLoop cycles/iteration" in first.stdout
        assert "2 simulated, 0 cached" in first.stderr
        frame = MetricFrame.from_json(out.read_text())
        assert len(frame) == 2
        assert "cycles_per_iteration" in frame.column_names
        assert MetricFrame.from_csv(csv_out.read_text()) == frame
        second = self._repro(
            "report", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync,Baseline+", "--cache", cache, "--quiet",
        )
        assert second.returncode == 0, second.stderr
        assert "0 simulated, 2 cached" in second.stderr

    def test_compare_gates_frames(self, tmp_path):
        cache = str(tmp_path / "cache")
        a = tmp_path / "a.json"
        args = ("report", "fig7", "--cores", "8", "--iterations", "2",
                "--configs", "WiSync", "--cache", cache, "--quiet")
        assert self._repro(*args, "--json", str(a)).returncode == 0
        same = self._repro("compare", str(a), str(a), "--max-regression", "0.01")
        assert same.returncode == 0, same.stderr
        assert "compare OK" in same.stderr
        # Inject a 2x cycles regression into the candidate frame.
        payload = json.loads(a.read_text())
        payload["columns"]["cycles"] = [2 * c for c in payload["columns"]["cycles"]]
        b = tmp_path / "b.json"
        b.write_text(json.dumps(payload))
        worse = self._repro("compare", str(a), str(b),
                            "--threshold", "cycles=0.5", "--json", "-", "--quiet")
        assert worse.returncode == 1
        assert "cycles regression" in worse.stderr
        structured = json.loads(worse.stdout)
        assert structured["failures"]

    @pytest.mark.parametrize("body", list(MALFORMED_PAYLOADS.values()),
                             ids=list(MALFORMED_PAYLOADS))
    def test_compare_rejects_malformed_payloads(self, tmp_path, body):
        # Exit 1 means "a gate failed"; a file that is not a frame is a usage
        # error (exit 2), never a traceback.
        path = tmp_path / "bad.json"
        path.write_text(body)
        proc = self._repro("compare", str(path), str(path))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

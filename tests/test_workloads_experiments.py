"""Tests for the workload builders, experiments, and analysis helpers."""

import pytest

from repro.analysis.area_power import area_power_table
from repro.analysis.metrics import speedup, throughput_per_kcycle, utilization_percent
from repro.analysis.tables import format_table
from repro.errors import WorkloadError
from repro.experiments.common import build_machine, run_workload_on_configs
from repro.experiments.fig7_tightloop import FIG7_REPORT, fig7_sweep
from repro.experiments.fig9_cas import FIG9_REPORT, fig9_sweep
from repro.experiments.table4_area_power import TABLE4_REPORT, table4_frame
from repro.machine.configs import baseline, wisync
from repro.machine.manycore import Manycore
from repro.runner.runner import Runner
from repro.workloads.cas_kernels import CasKernelKind, build_cas_kernel
from repro.workloads.livermore import LivermoreLoop, build_livermore_loop
from repro.workloads.synthetic_apps import (
    APPLICATION_PROFILES,
    application_names,
    build_application,
    profile_by_name,
)
from repro.workloads.tightloop import build_tightloop


class TestTightLoop:
    def test_runs_on_both_architectures(self):
        for config_fn in (baseline, wisync):
            machine = Manycore(config_fn(num_cores=8))
            handle = build_tightloop(machine, iterations=2)
            result = handle.run()
            assert result.completed
            assert handle.cycles_per_iteration(result) > 0

    def test_wisync_much_faster_than_baseline(self):
        base = build_tightloop(Manycore(baseline(num_cores=16)), iterations=3).run()
        fast = build_tightloop(Manycore(wisync(num_cores=16)), iterations=3).run()
        assert fast.total_cycles * 3 < base.total_cycles

    def test_metadata_records_iterations(self):
        handle = build_tightloop(Manycore(wisync(num_cores=4)), iterations=7)
        assert handle.metadata["iterations"] == 7
        assert handle.num_threads == 4


class TestLivermore:
    @pytest.mark.parametrize("loop", list(LivermoreLoop))
    def test_each_loop_runs(self, loop):
        machine = Manycore(wisync(num_cores=8))
        handle = build_livermore_loop(machine, loop, vector_length=64, repetitions=1)
        result = handle.run()
        assert result.completed

    def test_longer_vectors_take_longer(self):
        short = build_livermore_loop(
            Manycore(wisync(num_cores=8)), LivermoreLoop.INNER_PRODUCT, 64, repetitions=1
        ).run()
        long = build_livermore_loop(
            Manycore(wisync(num_cores=8)), LivermoreLoop.INNER_PRODUCT, 4096, repetitions=1
        ).run()
        assert long.total_cycles > short.total_cycles

    def test_invalid_vector_length_rejected(self):
        with pytest.raises(WorkloadError):
            build_livermore_loop(Manycore(wisync(num_cores=4)), LivermoreLoop.ICCG, 0)


class TestCasKernels:
    @pytest.mark.parametrize("kind", list(CasKernelKind))
    def test_each_kernel_completes_expected_successes(self, kind):
        machine = Manycore(wisync(num_cores=8))
        handle = build_cas_kernel(machine, kind, critical_section_instructions=256,
                                  successes_per_thread=3)
        result = handle.run()
        assert result.completed
        assert sum(result.thread_results) == 3 * 8

    def test_wisync_throughput_beats_baseline_under_contention(self):
        def throughput(config_fn):
            machine = Manycore(config_fn(num_cores=16))
            handle = build_cas_kernel(machine, CasKernelKind.ADD, 64, successes_per_thread=3)
            result = handle.run()
            return throughput_per_kcycle(int(handle.metadata["total_successes"]),
                                         result.total_cycles)

        assert throughput(wisync) > 5 * throughput(baseline)

    def test_larger_critical_sections_reduce_throughput_gap(self):
        def gap(crit):
            results = {}
            for name, config_fn in (("baseline", baseline), ("wisync", wisync)):
                machine = Manycore(config_fn(num_cores=8))
                handle = build_cas_kernel(machine, CasKernelKind.ADD, crit, successes_per_thread=3)
                result = handle.run()
                results[name] = throughput_per_kcycle(3 * 8, result.total_cycles)
            return results["wisync"] / results["baseline"]

        assert gap(16384) < gap(64)


class TestApplicationProxies:
    def test_profile_catalog_covers_both_suites(self):
        names = application_names()
        assert "streamcluster" in names and "raytrace" in names
        assert len(application_names("parsec")) == 12
        assert len(application_names("splash2")) == 14
        assert len(APPLICATION_PROFILES) == 26

    def test_unknown_profile_rejected(self):
        with pytest.raises(WorkloadError):
            profile_by_name("doom3")

    def test_application_runs_on_all_configs(self):
        profile = profile_by_name("streamcluster")
        results = run_workload_on_configs(
            lambda machine: build_application(machine, profile, phase_scale=0.2),
            num_cores=8,
        )
        assert set(results) == {"Baseline", "Baseline+", "WiSyncNoT", "WiSync"}
        assert all(result.completed for result in results.values())

    def test_barrier_heavy_app_speeds_up_more_than_compute_bound(self):
        def speedup_for(name):
            profile = profile_by_name(name)
            results = run_workload_on_configs(
                lambda machine: build_application(machine, profile, phase_scale=0.2),
                num_cores=16,
                configs=["Baseline", "WiSync"],
            )
            return speedup(results["Baseline"].total_cycles, results["WiSync"].total_cycles)

        assert speedup_for("streamcluster") > speedup_for("blackscholes")
        assert speedup_for("blackscholes") < 1.5


class TestExperimentsAndAnalysis:
    def test_table4_matches_paper_numbers(self):
        table = TABLE4_REPORT.table(table4_frame())
        rf = table["transceiver+2antennas"]
        assert rf["area_mm2"] == pytest.approx(0.14)
        assert rf["power_w"] == pytest.approx(0.018)
        assert table["Xeon Haswell"]["rf_area_percent"] == pytest.approx(0.7, abs=0.1)
        assert table["Atom Silvermont"]["rf_area_percent"] == pytest.approx(5.6, abs=0.2)
        assert "Table 4" in TABLE4_REPORT.render_table(table)

    def test_fig7_small_sweep_produces_paper_ordering(self):
        series = FIG7_REPORT.table(Runner().run(fig7_sweep(core_counts=[16], iterations=2)).frame())
        row = series[16]
        assert row["WiSync"] < row["Baseline+"] < row["Baseline"]
        assert row["WiSync"] < row["WiSyncNoT"] < row["Baseline"]
        assert "cores" in FIG7_REPORT.render_table(series)

    def test_fig9_small_sweep_wisync_wins_at_high_contention(self):
        sweep = fig9_sweep(
            kinds=[CasKernelKind.ADD], core_counts=[8], critical_sections=[64],
            successes_per_thread=3,
        )
        series = FIG9_REPORT.table(Runner().run(sweep).frame())
        point = series[("add", 8, 64)]
        assert point["WiSync"] > point["Baseline"]
        assert "kernel" in FIG9_REPORT.render_table(series)

    def test_build_machine_labels(self):
        machine = build_machine("WiSync", num_cores=4)
        assert machine.config.name == "wisync"
        assert machine.config.num_cores == 4

    def test_metric_helpers(self):
        assert speedup(200, 100) == 2.0
        assert throughput_per_kcycle(50, 1000) == 50.0

    def test_metric_helpers_reject_non_positive_denominators(self):
        # The silent-0.0 fallback hid harness bugs; invalid input now raises
        # unless the caller opts into a fallback with default=.
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError, match="speedup"):
            speedup(200, 0)
        with pytest.raises(AnalysisError, match="total_cycles"):
            throughput_per_kcycle(50, 0)
        assert speedup(200, 0, default=0.0) == 0.0
        assert throughput_per_kcycle(50, 0, default=float("nan")) != 0.0

    def test_format_table_renders_all_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in text and "x" in text and "2.5" in text

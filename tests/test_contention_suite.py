"""Tests for the contention-scenario suite and its sweep/CLI plumbing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from frame_bodies import frame_body, rounds
from repro.cpu.frames import START, Op, Ret
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.scenarios import (
    CONTENTION_LEVELS,
    EXPERIMENT,
    SCENARIOS_TOTAL_REPORT,
    WIRELESS_CONFIGS,
    contention_params,
    scenario_sweep,
)
from repro.machine.configs import baseline, baseline_plus, wisync, wisync_not
from repro.machine.manycore import Manycore
from repro.runner.executor import backoff_variant, build_config_for, execute_spec
from repro.runner.registry import REGISTRY
from repro.isa.operations import Compute
from repro.runner.spec import RunSpec
from repro.sync.api import SyncFactory
from repro.sync.frames import (
    rwlock_acquire_read,
    rwlock_acquire_write,
    rwlock_release_read,
    rwlock_release_write,
)
from repro.sync.rwlock import WRITER_HELD
from repro.workloads.contention_suite import SCENARIOS, scenario_info, scenario_names

CONFIG_BUILDERS = {
    "Baseline": baseline,
    "Baseline+": baseline_plus,
    "WiSyncNoT": wisync_not,
    "WiSync": wisync,
}


# ---------------------------------------------------------------------------
# The scenarios themselves
# ---------------------------------------------------------------------------
class TestScenarioWorkloads:
    def test_catalog_matches_registry(self):
        assert len(SCENARIOS) >= 5
        for name in scenario_names():
            assert name in REGISTRY
            info = scenario_info(name)
            assert info.summary and info.example
            assert "num_threads" in info.knobs_dict()

    def test_unknown_scenario_raises(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario_info("does-not-exist")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("config", sorted(CONFIG_BUILDERS))
    def test_runs_to_completion_on_every_config(self, scenario, config):
        machine = Manycore(CONFIG_BUILDERS[config](num_cores=8))
        handle = REGISTRY.build(machine, scenario, {})
        result = handle.run(max_cycles=2_000_000)
        assert result.completed, f"{scenario} truncated on {config}"
        assert result.finished_threads == handle.num_threads

    @pytest.mark.parametrize("cores", [1, 3, 8])
    def test_odd_and_single_core_counts(self, cores):
        # Ring wrap-around, unpaired pipeline threads, and self-channels are
        # the deadlock-prone edges.
        for scenario in ("pc_ring", "mixed_phases", "work_steal"):
            machine = Manycore(wisync_not(num_cores=cores))
            result = REGISTRY.build(machine, scenario, {}).run(max_cycles=2_000_000)
            assert result.completed, (scenario, cores)

    def test_pc_ring_checksum(self):
        machine = Manycore(wisync(num_cores=4))
        handle = REGISTRY.build(machine, "pc_ring", {"items": 5})
        result = handle.run()
        # Every thread consumes exactly `items` payloads whose fourth word is
        # item+1, so each per-thread checksum is 1+2+...+items.
        assert result.thread_results == [15, 15, 15, 15]

    def test_work_steal_conserves_tasks(self):
        machine = Manycore(wisync(num_cores=8))
        handle = REGISTRY.build(
            machine, "work_steal", {"tasks_per_thread": 4, "seed_stride": 4}
        )
        result = handle.run()
        assert result.completed
        # Only threads 0 and 4 are seeded (4*4 tasks each); every task is
        # processed exactly once, wherever it was stolen to.
        assert sum(result.thread_results) == handle.metadata["total_tasks"] == 32

    def test_work_steal_stealing_happens_under_skew(self):
        machine = Manycore(wisync(num_cores=8))
        handle = REGISTRY.build(
            machine, "work_steal", {"tasks_per_thread": 4, "seed_stride": 8}
        )
        result = handle.run()
        # All work starts on thread 0; with 8 threads and 32 tasks somebody
        # other than thread 0 must end up processing some of it.
        assert sum(result.thread_results[1:]) > 0

    def test_rwlock_operation_counts(self):
        machine = Manycore(baseline(num_cores=6))
        handle = REGISTRY.build(
            machine, "rwlock", {"operations": 7, "write_fraction": 0.5}
        )
        result = handle.run()
        for reads, writes in result.thread_results:
            assert reads + writes == 7

    def test_rwlock_pure_modes(self):
        for fraction in (0.0, 1.0):
            machine = Manycore(wisync(num_cores=4))
            handle = REGISTRY.build(
                machine, "rwlock", {"operations": 3, "write_fraction": fraction}
            )
            assert handle.run().completed

    def test_knob_validation(self):
        machine = Manycore(wisync(num_cores=4))
        with pytest.raises(WorkloadError):
            REGISTRY.build(machine, "pc_ring", {"items": 0})
        with pytest.raises(WorkloadError):
            REGISTRY.build(machine, "rwlock", {"write_fraction": 1.5})
        with pytest.raises(WorkloadError):
            REGISTRY.build(machine, "work_steal", {"seed_stride": 0})
        with pytest.raises(WorkloadError):
            REGISTRY.build(machine, "barrier_storm", {"phases": 0})

    def test_deterministic_across_runs(self):
        spec = RunSpec(
            workload="mixed_phases", params=(("phases", 4),),
            config="WiSync", num_cores=8,
        )
        first, second = execute_spec(spec), execute_spec(spec)
        assert first.total_cycles == second.total_cycles
        assert first.stats.to_dict() == second.stats.to_dict()


# ---------------------------------------------------------------------------
# The rwlock primitive
# ---------------------------------------------------------------------------
class TestReadersWriterLock:
    def _run_threads(self, config, body_factory, num_threads):
        machine = Manycore(config(num_cores=num_threads))
        program = machine.new_program("rwlock-test")
        sync = SyncFactory(program)
        rwlock = sync.create_rwlock()
        trace = []
        body = frame_body(machine, "rwlock.test", body_factory(rwlock.sync_id, trace))
        for _ in range(num_threads):
            program.add_thread(body)
        result = machine.run()
        assert result.completed
        return trace

    @pytest.mark.parametrize("config", [baseline, wisync])
    def test_writers_are_mutually_exclusive(self, config):
        depth = {"value": 0}

        def factory(sid, trace):
            def body(frame, value, env):
                if frame.label == "acquired":
                    depth["value"] += 1
                    trace.append(depth["value"])
                    return Op(Compute(20), "held")
                if frame.label == "held":
                    depth["value"] -= 1
                    return rwlock_release_write(sid, "released")
                if not rounds(frame, 3):
                    return Ret(None)
                return rwlock_acquire_write(sid, "acquired")
            return body

        trace = self._run_threads(config, factory, 4)
        assert len(trace) == 12
        assert set(trace) == {1}, "two writers overlapped"

    @pytest.mark.parametrize("config", [baseline, wisync])
    def test_readers_overlap_but_exclude_writers(self, config):
        state = {"readers": 0, "writers": 0, "max_readers": 0}

        def factory(sid, trace):
            def body(frame, value, env):
                writer = env.ctx.thread_id == 0
                if frame.label == START:
                    if writer:
                        return rwlock_acquire_write(sid, "acquired")
                    return rwlock_acquire_read(sid, "acquired")
                if frame.label == "acquired" and writer:
                    state["writers"] += 1
                    trace.append(("w", state["readers"], state["writers"]))
                    return Op(Compute(30), "held")
                if frame.label == "acquired":
                    state["readers"] += 1
                    state["max_readers"] = max(state["max_readers"], state["readers"])
                    trace.append(("r", state["readers"], state["writers"]))
                    # Hold long enough that reader sections overlap even with
                    # the Baseline's coherence-serialized CAS acquisitions.
                    return Op(Compute(500), "held")
                if frame.label == "held" and writer:
                    state["writers"] -= 1
                    return rwlock_release_write(sid, "released")
                if frame.label == "held":
                    state["readers"] -= 1
                    return rwlock_release_read(sid, "released")
                return Ret(None)
            return body

        trace = self._run_threads(config, factory, 6)
        for kind, readers, writers in trace:
            if kind == "w":
                assert readers == 0, "writer entered with readers inside"
            else:
                assert writers == 0, "reader entered with a writer inside"
        assert state["max_readers"] > 1, "readers never overlapped"

    def test_writer_sentinel_headroom(self):
        # The sentinel must dwarf any plausible reader count.
        assert WRITER_HELD > 1 << 20


# ---------------------------------------------------------------------------
# The sweep builder
# ---------------------------------------------------------------------------
class TestScenarioSweep:
    def test_every_level_covers_every_scenario(self):
        for level, presets in CONTENTION_LEVELS.items():
            assert sorted(presets) == scenario_names(), level

    def test_unknown_level_and_scenario_raise(self):
        with pytest.raises(ConfigurationError, match="contention level"):
            contention_params("pc_ring", "extreme")
        with pytest.raises(ConfigurationError, match="preset"):
            contention_params("nope", "low")

    def test_empty_axis_raises_clean_error(self):
        # `--backoffs ,` on the CLI parses to an empty list; that must be a
        # ConfigurationError (exit 2), not an IndexError or an empty sweep.
        with pytest.raises(ConfigurationError, match="backoffs"):
            scenario_sweep(backoffs=[])
        with pytest.raises(ConfigurationError, match="scenarios"):
            scenario_sweep(scenarios=[])
        with pytest.raises(ConfigurationError, match="configs"):
            scenario_sweep(configs=[])

    def test_backoff_axis_only_on_wireless_configs(self):
        sweep = scenario_sweep(
            scenarios=["barrier_storm"], core_counts=[8],
            configs=["Baseline", "WiSync"], contention=["high"],
            backoffs=["broadcast_aware", "exponential"],
        )
        by_config = {}
        for spec in sweep:
            by_config.setdefault(spec.config, []).append(spec.variant)
        assert by_config["Baseline"] == [None]
        assert by_config["WiSync"] == [None, "backoff=exponential"]

    def test_grid_has_no_duplicates(self):
        # SweepSpec would raise on duplicates; the full default grid builds.
        sweep = scenario_sweep(backoffs=["broadcast_aware", "exponential", "fixed"])
        assert len(sweep) == len(set(sweep.specs))

    def test_backoff_variant_changes_machine_config(self):
        spec = RunSpec(
            workload="barrier_storm", config="WiSync", num_cores=8,
            variant=backoff_variant("exponential"),
        )
        config = build_config_for(spec)
        assert config.backoff.kind == "exponential"
        assert "backoff=exponential" in config.name

    def test_unknown_backoff_variant_raises(self):
        spec = RunSpec(
            workload="barrier_storm", config="WiSync", num_cores=8,
            variant=backoff_variant("quadratic"),
        )
        with pytest.raises(ConfigurationError):
            build_config_for(spec)

    def test_backoff_policy_changes_contended_timing(self):
        base = dict(
            workload="barrier_storm",
            params=tuple(contention_params("barrier_storm", "high").items()),
            config="WiSyncNoT", num_cores=16,
        )
        default = execute_spec(RunSpec(**base))
        fixed = execute_spec(RunSpec(**base, variant=backoff_variant("fixed")))
        assert default.total_cycles != fixed.total_cycles

    def test_run_scenarios_table_shape(self):
        frame = EXPERIMENT.frame(
            scenarios=["pc_ring"], core_counts=[8],
            configs=["Baseline", "WiSync"], contention=["low"],
            backoffs=["broadcast_aware", "exponential"],
        )
        table = SCENARIOS_TOTAL_REPORT.table(frame)
        assert set(table) == {
            ("pc_ring", "low", 8, "broadcast_aware"),
            ("pc_ring", "low", 8, "exponential"),
        }
        # The MAC-free Baseline is backoff-independent: same result per row.
        rows = list(table.values())
        assert rows[0]["Baseline"] == rows[1]["Baseline"]
        for row in rows:
            assert set(row) == {"Baseline", "WiSync"}


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestScenarioCli:
    def _repro(self, *argv):
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env,
        )

    def test_scenarios_listing(self):
        proc = self._repro("scenarios", "--json")
        assert proc.returncode == 0, proc.stderr
        catalog = json.loads(proc.stdout)
        assert set(catalog) == set(scenario_names())
        for entry in catalog.values():
            assert {"summary", "knobs", "example"} <= set(entry)

    def test_run_scenarios_streams_progress(self):
        proc = self._repro(
            "run", "scenarios", "--cores", "8", "--configs", "WiSync",
            "--contention", "high", "--progress", "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        progress_lines = [
            line for line in proc.stderr.splitlines() if line.startswith("[")
        ]
        # One line per grid point: 5 scenarios x 1 config x 1 level.
        assert len(progress_lines) == 5
        assert all("(simulated)" in line for line in progress_lines)
        covered = {line.split("] ", 1)[1].split("[", 1)[0] for line in progress_lines}
        assert covered == set(scenario_names())

    def test_run_scenarios_progress_reports_cache_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        args = (
            "run", "scenarios", "--cores", "8", "--configs", "WiSync",
            "--scenarios", "barrier_storm", "--contention", "low",
            "--cache", cache, "--progress", "--quiet",
        )
        first = self._repro(*args)
        assert first.returncode == 0, first.stderr
        assert "(simulated)" in first.stderr
        second = self._repro(*args)
        assert second.returncode == 0, second.stderr
        assert "(cached)" in second.stderr
        assert "(simulated)" not in second.stderr

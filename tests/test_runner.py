"""Tests for the declarative run API (repro.runner)."""

import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExecutionError, WorkloadError
from repro.experiments.fig9_cas import fig9_sweep
from repro.machine.configs import wisync
from repro.machine.manycore import Manycore
from repro.runner import (
    REGISTRY,
    ParallelExecutor,
    ResultCache,
    Runner,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    execute_spec,
    workload_names,
)
from repro.runner.cache import CACHE_FORMAT_VERSION
from repro.runner.registry import WorkloadRegistry
from repro.workloads.cas_kernels import CasKernelKind
from repro.workloads.tightloop import build_tightloop


def tightloop_spec(**overrides):
    base = dict(
        workload="tightloop",
        params={"iterations": 2},
        config="WiSync",
        num_cores=8,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRegistry:
    def test_paper_workloads_registered(self):
        assert workload_names() == [
            "application", "barrier_storm", "cas", "fault_probe", "livermore",
            "mixed_phases", "pc_ring", "rwlock", "tightloop", "work_steal",
        ]

    def test_name_round_trips_to_builder(self):
        assert REGISTRY.get("tightloop") is build_tightloop

    def test_unknown_workload_raises(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            REGISTRY.get("does-not-exist")

    def test_registry_builds_a_runnable_handle(self):
        machine = Manycore(wisync(num_cores=4))
        handle = REGISTRY.build(machine, "tightloop", {"iterations": 2})
        assert handle.run().completed

    def test_build_names_every_unknown_and_missing_parameter(self):
        machine = Manycore(wisync(num_cores=4))
        with pytest.raises(
            WorkloadError, match=r"workload 'tightloop': unknown parameter\(s\) 'iterationz'$"
        ):
            REGISTRY.build(machine, "tightloop", {"iterationz": 3})
        with pytest.raises(WorkloadError) as caught:
            REGISTRY.build(machine, "cas", {"kind": "lifo", "bogus": 1})
        assert str(caught.value) == (
            "workload 'cas': unknown parameter(s) 'bogus'; "
            "missing parameter(s) 'critical_section_instructions'"
        )

    def test_build_passes_a_builder_type_error_through(self):
        registry = WorkloadRegistry()

        @registry.register("broken")
        def build_broken(machine, size=1, **extra):
            raise TypeError("raised inside the builder")

        with pytest.raises(TypeError, match="raised inside the builder"):
            registry.build(None, "broken", {"size": 2, "anything": 3})

    def test_user_registration_does_not_hide_builtins(self):
        # A custom workload registered before any lookup must not suppress
        # the lazy import that registers the built-in workloads.
        script = (
            "from repro import register_workload, workload_names\n"
            "@register_workload('custom-first')\n"
            "def build(machine):\n"
            "    raise NotImplementedError\n"
            "names = workload_names()\n"
            "assert 'custom-first' in names and 'tightloop' in names, names\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestRunSpec:
    def test_params_round_trip(self):
        spec = tightloop_spec(params={"b": 2, "a": [1, 2]})
        assert spec.params_dict() == {"a": [1, 2], "b": 2}

    def test_hashable_and_order_insensitive(self):
        first = tightloop_spec(params={"a": 1, "b": 2})
        second = tightloop_spec(params={"b": 2, "a": 1})
        assert first == second
        assert hash(first) == hash(second)
        assert first.key() == second.key()

    def test_to_from_dict_round_trip(self):
        spec = tightloop_spec(variant="SlowNet", max_cycles=1000, seed=7)
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_key_differs_per_axis(self):
        base = tightloop_spec()
        assert base.key() != tightloop_spec(num_cores=16).key()
        assert base.key() != tightloop_spec(config="Baseline").key()
        assert base.key() != tightloop_spec(seed=1).key()
        assert base.key() != tightloop_spec(params={"iterations": 3}).key()

    def test_key_deterministic_across_processes(self):
        spec = tightloop_spec(params={"iterations": 4, "array_elements": 10})
        script = (
            "from repro.runner.spec import RunSpec;"
            f"print(RunSpec.from_dict({spec.to_dict()!r}).key())"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        ).stdout.strip()
        assert output == spec.key()

    def test_rejects_unserializable_params(self):
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            tightloop_spec(params={"fn": object()})

    def test_rejects_bad_core_count(self):
        with pytest.raises(ConfigurationError):
            tightloop_spec(num_cores=0)


class TestSweepSpec:
    def test_grid_cross_product(self):
        sweep = SweepSpec.grid(
            name="g", workload="tightloop",
            configs=["Baseline", "WiSync"], core_counts=[4, 8],
            params=[{"iterations": 1}, {"iterations": 2}],
        )
        assert len(sweep) == 8
        assert len(set(sweep.specs)) == 8

    def test_round_trip(self):
        sweep = fig9_sweep(core_counts=[8], critical_sections=[16])
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert clone == sweep


class TestExecutors:
    def test_execute_spec_truncation_marks_partial(self):
        result = execute_spec(tightloop_spec(params={"iterations": 50}, max_cycles=100))
        assert not result.completed
        assert result.total_cycles >= 100
        assert max(result.thread_cycles) <= result.total_cycles

    def test_serial_vs_parallel_equality_on_fig9_sweep(self):
        sweep = fig9_sweep(
            kinds=[CasKernelKind.FIFO, CasKernelKind.ADD],
            core_counts=[8], critical_sections=[16], successes_per_thread=2,
        )
        serial = SerialExecutor().run(sweep.specs)
        parallel = ParallelExecutor(max_workers=2).run(sweep.specs)
        assert len(serial) == len(parallel) == len(sweep)
        for mine, theirs in zip(serial, parallel):
            assert mine.total_cycles == theirs.total_cycles
            assert mine.thread_cycles == theirs.thread_cycles
            assert mine.stats.to_dict() == theirs.stats.to_dict()

    def test_parallel_preserves_spec_order(self):
        specs = [tightloop_spec(num_cores=cores) for cores in (4, 8, 16)]
        results = ParallelExecutor(max_workers=3).run(specs)
        assert [r.num_cores for r in results] == [4, 8, 16]

    def test_parallel_progress_hook_index_matches_spec(self):
        specs = [tightloop_spec(num_cores=cores) for cores in (4, 8, 16)]
        seen = {}
        ParallelExecutor(max_workers=3).run(
            specs, progress=lambda i, n, spec, result: seen.__setitem__(i, spec)
        )
        assert seen == {0: specs[0], 1: specs[1], 2: specs[2]}

    def test_completed_flag_matches_finished_threads_at_boundary(self):
        baseline = execute_spec(tightloop_spec())
        for budget in (baseline.total_cycles, baseline.total_cycles + 1):
            result = execute_spec(tightloop_spec(max_cycles=budget))
            assert result.completed == (
                result.finished_threads == result.total_threads
            )

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_wall_seconds_times_the_simulation_not_the_build(
        self, tmp_path, monkeypatch, checkpointed
    ):
        # One timing rule with or without checkpoints: the clock starts at
        # the built machine, so a slow build stays out of wall_seconds.
        import time

        real_build = REGISTRY.build

        def slow_build(*args, **kwargs):
            time.sleep(0.3)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(REGISTRY, "build", slow_build)
        options = (
            {"checkpoint_every": 1000, "checkpoint_dir": str(tmp_path)}
            if checkpointed else {}
        )
        result = execute_spec(tightloop_spec(), **options)
        assert 0 < result.extra["wall_seconds"] < 0.3


class TestSpecMemory:
    """``execute_spec`` frees each spec's machine when the spec ends, with one
    young collection under a collector paused for the whole spec."""

    @pytest.mark.parametrize(
        "spec",
        [
            tightloop_spec(config=config, num_cores=cores, params={"iterations": 1})
            for config in ("Baseline", "Baseline+", "WiSyncNoT", "WiSync")
            for cores in (4, 16, 64)
        ]
        + [RunSpec(workload="rwlock", params={"operations": 8}, config="WiSync", num_cores=16)],
        ids=RunSpec.label,
    )
    def test_the_machine_is_freed_when_the_spec_ends(self, monkeypatch, spec):
        # A finished machine is one cyclic graph; without the young
        # collection it would wait for a full collection.
        machines = []
        real_init = Manycore.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            machines.append(weakref.ref(self))

        monkeypatch.setattr(Manycore, "__init__", init)
        assert execute_spec(spec).completed
        assert len(machines) == 1
        assert machines[0]() is None

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("exit_path", ["returns", "build-raises", "preempted"])
    def test_the_collector_is_left_as_found(self, exit_path, enabled):
        from repro.snapshot.execution import ExecutionPreempted

        spec, options, raised = {
            "returns": (tightloop_spec(), {}, None),
            "build-raises": (tightloop_spec(config="NoSuchConfig"), {}, ConfigurationError),
            "preempted": (
                tightloop_spec(),
                {"checkpoint_every": 100, "should_stop": lambda: True},
                ExecutionPreempted,
            ),
        }[exit_path]
        generations = []

        def collection(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.collect()  # so no automatic collection falls due before the pause
        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(collection)
        try:
            if raised is None:
                execute_spec(spec, **options)
            else:
                with pytest.raises(raised):
                    execute_spec(spec, **options)
            assert gc.isenabled() == enabled
        finally:
            gc.callbacks.remove(collection)
            (gc.enable if was_enabled else gc.disable)()
        if not enabled:
            assert generations == []
        elif raised is None:
            assert generations == [0]


def fault_spec(**params):
    return RunSpec(workload="fault_probe", params=params, config="WiSync", num_cores=4)


class TestExecutorFaults:
    """Fault injection: failing grid points must not abort or corrupt a sweep."""

    def test_parallel_yields_successes_then_raises_structured_error(self):
        # Regression: one worker exception used to abort the whole sweep and
        # discard every completed-but-unyielded result.
        specs = [
            tightloop_spec(num_cores=4),
            fault_spec(mode="raise"),
            tightloop_spec(num_cores=8),
        ]
        received = {}
        with pytest.raises(ExecutionError) as excinfo:
            for position, result in ParallelExecutor(max_workers=2).run_iter(specs):
                received[position] = result
        assert sorted(received) == [0, 2]
        assert received[0].completed and received[2].completed
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0][0] == specs[1]
        assert "fault_probe" in failures[0][1]
        assert "fault_probe" in str(excinfo.value)

    def test_parallel_retries_flaky_spec_once_and_succeeds(self, tmp_path):
        marker = str(tmp_path / "flaky-marker")
        specs = [fault_spec(marker=marker), tightloop_spec(num_cores=8)]
        results = ParallelExecutor(max_workers=2).run(specs)
        assert len(results) == 2
        assert all(result.completed for result in results)
        assert Path(marker).exists()  # the failing first attempt happened

    def test_pool_crasher_does_not_poison_innocent_specs(self):
        # A spec that kills its worker process breaks the shared pool, so
        # innocent in-flight specs fail collaterally (BrokenProcessPool).
        # The retry round must run each spec in an isolated pool: innocents
        # recover, and only the crasher lands in ExecutionError.failures.
        specs = [
            tightloop_spec(num_cores=4),
            fault_spec(mode="exit"),
            tightloop_spec(num_cores=8),
            tightloop_spec(num_cores=16),
        ]
        received = {}
        with pytest.raises(ExecutionError) as excinfo:
            for position, result in ParallelExecutor(max_workers=2).run_iter(specs):
                received[position] = result
        assert sorted(received) == [0, 2, 3]
        assert all(result.completed for result in received.values())
        failures = excinfo.value.failures
        assert [spec for spec, _ in failures] == [specs[1]]

    def test_inline_path_has_the_same_failure_semantics(self):
        # max_workers=1 (and single-spec batches) take the pool's path too:
        # capture, retry, and raise ExecutionError — not the raw error.
        with pytest.raises(ExecutionError, match="1 of 1 grid points"):
            ParallelExecutor(max_workers=1).run([fault_spec(mode="raise")])

    def test_one_worker_pool_isolates_a_crashing_spec(self):
        # A spec that kills its interpreter fails its grid point, even with
        # one worker; run in a child so a regression cannot kill the suite.
        code = "\n".join([
            "from repro.errors import ExecutionError",
            "from repro.runner import ParallelExecutor, RunSpec",
            "spec = RunSpec(workload='fault_probe', params={'mode': 'exit'},",
            "               config='WiSync', num_cores=4)",
            "try:",
            "    ParallelExecutor(max_workers=1).run([spec])",
            "except ExecutionError as error:",
            "    print(f'ExecutionError: {error}')",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ExecutionError: 1 of 1 grid points failed" in proc.stdout

    def test_inline_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "flaky-inline")
        results = ParallelExecutor(max_workers=1).run([fault_spec(marker=marker)])
        assert len(results) == 1 and results[0].completed

    def test_inline_and_pool_paths_share_the_attempt_budget(self, tmp_path):
        # A spec failing twice and succeeding on the third attempt completes
        # with one worker and with two: both get every attempt (initial +
        # shared retry + isolated retry).
        inline_marker = str(tmp_path / "inline-twice")
        results = ParallelExecutor(max_workers=1).run(
            [fault_spec(marker=inline_marker, fail_count=2)]
        )
        assert results[0].completed
        pool_marker = str(tmp_path / "pool-twice")
        results = ParallelExecutor(max_workers=2).run(
            [fault_spec(marker=pool_marker, fail_count=2), tightloop_spec(num_cores=8)]
        )
        assert all(result.completed for result in results)

    def test_run_rejects_duplicate_positions(self):
        # Regression: duplicate positions were silently collapsed by the
        # None-filter in _ExecutorBase.run, masking a broken executor.
        class Duplicating(SerialExecutor):
            def run_iter(self, specs):
                result = execute_spec(specs[0])
                yield 0, result
                yield 0, result

        with pytest.raises(WorkloadError, match="more than once"):
            Duplicating().run([tightloop_spec(), tightloop_spec(num_cores=4)])

    def test_run_rejects_missing_positions(self):
        class Short(SerialExecutor):
            def run_iter(self, specs):
                yield 0, execute_spec(specs[0])

        with pytest.raises(WorkloadError, match=r"no result for position\(s\) \[1\]"):
            Short().run([tightloop_spec(), tightloop_spec(num_cores=4)])

    def test_run_rejects_none_results(self):
        # A (position, None) pair used to slip past position validation and
        # then vanish in a None-filter, silently shortening the result list.
        class Noneish(SerialExecutor):
            def run_iter(self, specs):
                yield 0, None

        with pytest.raises(WorkloadError, match=r"no result \(None\)"):
            Noneish().run([tightloop_spec()])

    def test_run_rejects_out_of_range_positions(self):
        class Negative(SerialExecutor):
            def run_iter(self, specs):
                yield -1, execute_spec(specs[0])

        with pytest.raises(WorkloadError, match="outside"):
            Negative().run([tightloop_spec()])

    def test_fault_probe_modes(self):
        machine = Manycore(wisync(num_cores=4))
        with pytest.raises(WorkloadError, match="injected failure"):
            REGISTRY.build(machine, "fault_probe", {"mode": "raise"})
        with pytest.raises(WorkloadError, match="unknown mode"):
            REGISTRY.build(Manycore(wisync(num_cores=4)), "fault_probe", {"mode": "?"})
        result = execute_spec(fault_spec())
        assert result.completed


class TestSimResultSerialization:
    def test_round_trip_preserves_metrics(self):
        from repro.machine.results import SimResult

        result = execute_spec(tightloop_spec())
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.total_cycles == result.total_cycles
        assert clone.thread_cycles == result.thread_cycles
        assert clone.thread_results == result.thread_results
        assert clone.completed == result.completed
        assert clone.wireless_messages == result.wireless_messages
        assert clone.data_channel_utilization() == result.data_channel_utilization()
        assert clone.mean_transfer_latency() == result.mean_transfer_latency()
        assert clone.summary() == result.summary()


class TestCacheAndRunner:
    def test_cache_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = tightloop_spec()
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, result)
        assert spec in cache
        cached = cache.get(spec)
        assert cached is not None
        assert cached.total_cycles == result.total_cycles
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    # Regression: valid JSON of the wrong shape escaped ``get`` as an
    # AttributeError/KeyError and crashed the sweep, and ``prune`` kept it.
    @pytest.mark.parametrize(
        "body",
        [
            "{not json",
            "[]",
            "null",
            json.dumps({"version": CACHE_FORMAT_VERSION}),
            json.dumps({"version": CACHE_FORMAT_VERSION, "result": {"bogus": 1}}),
        ],
    )
    def test_corrupt_entry_is_a_miss_and_is_evicted(self, tmp_path, body):
        cache = ResultCache(tmp_path)
        spec = tightloop_spec()
        cache.entry_path(spec).write_text(body)
        assert cache.get(spec) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not cache.entry_path(spec).exists()

    def test_stale_version_entry_is_evicted_on_read(self, tmp_path):
        # Regression: a version-mismatched entry was treated as a miss but
        # left on disk forever, inflating len(cache) with dead files.
        cache = ResultCache(tmp_path)
        spec = tightloop_spec()
        cache.put(spec, execute_spec(spec))
        payload = json.loads(cache.entry_path(spec).read_text())
        payload["version"] = -1
        cache.entry_path(spec).write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert not cache.entry_path(spec).exists()
        assert len(cache) == 0

    def test_prune_sweeps_dead_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        live = tightloop_spec()
        cache.put(live, execute_spec(live))
        stale = tightloop_spec(num_cores=4)
        cache.put(stale, execute_spec(stale))
        payload = json.loads(cache.entry_path(stale).read_text())
        payload["version"] = -1
        cache.entry_path(stale).write_text(json.dumps(payload))
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "misshapen.json").write_text(
            json.dumps({"version": CACHE_FORMAT_VERSION, "result": {"bogus": 1}})
        )
        assert len(cache) == 4
        assert cache.prune() == 3
        assert len(cache) == 1
        assert cache.get(live) is not None

    def test_prune_sweeps_orphaned_tmp_files(self, tmp_path):
        # Regression: a writer dying between mkstemp and os.replace leaked
        # *.tmp files forever; with distributed multi-host writers sharing
        # the directory that leak is recurring, not theoretical.
        import os
        import time

        cache = ResultCache(tmp_path)
        live = tightloop_spec()
        cache.put(live, execute_spec(live))
        orphan = tmp_path / "tmpdead123.tmp"
        orphan.write_text("{")
        ancient = time.time() - 7200
        os.utime(orphan, (ancient, ancient))
        in_flight = tmp_path / "tmplive456.tmp"
        in_flight.write_text("{")
        assert cache.prune() == 1
        assert not orphan.exists()
        assert in_flight.exists()  # young enough to belong to a live writer
        assert cache.get(live) is not None

    def test_put_tolerates_concurrent_clear_of_its_temp_file(self, tmp_path, monkeypatch):
        # Regression: clear() on another host sweeping an in-flight *.tmp
        # made the writer's os.replace raise FileNotFoundError, aborting a
        # sweep whose result was already simulated.
        import os as os_module

        cache = ResultCache(tmp_path)
        spec = tightloop_spec()
        result = execute_spec(spec)
        real_replace = os_module.replace

        def racing_replace(src, dst):
            os_module.unlink(src)  # the concurrent clear() wins the race
            return real_replace(src, dst)

        monkeypatch.setattr("repro.runner.cache.os.replace", racing_replace)
        cache.put(spec, result)  # must not raise
        assert cache.get(spec) is None  # entry lost to the race, not cached

    def test_clear_removes_tmp_files_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tightloop_spec()
        cache.put(spec, execute_spec(spec))
        (tmp_path / "tmpfresh.tmp").write_text("{")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_runner_skips_cached_specs(self, tmp_path):
        sweep = SweepSpec(name="s", specs=(tightloop_spec(), tightloop_spec(num_cores=4)))
        runner = Runner(cache=ResultCache(tmp_path))
        first = runner.run(sweep)
        assert (first.num_simulated, first.num_cached) == (2, 0)
        second = runner.run(sweep)
        assert (second.num_simulated, second.num_cached) == (0, 2)
        for spec in sweep:
            assert first.result_for(spec).total_cycles == second.result_for(spec).total_cycles

    def test_sweep_rejects_duplicate_grid_points(self):
        # Overlapping axes used to double-run (and then silently deduplicate)
        # a grid point; a duplicate spec is now a configuration error.
        spec = tightloop_spec()
        with pytest.raises(ConfigurationError, match="more than once"):
            SweepSpec(name="d", specs=(spec, spec))
        with pytest.raises(ConfigurationError, match="overlapping axes"):
            SweepSpec.grid(
                name="g", workload="tightloop",
                configs=["WiSync"], core_counts=[8, 8],
            )

    def test_run_spec_facade(self):
        result = Runner().run_spec(tightloop_spec())
        assert result.completed
        assert result.num_cores == 8


class TestStreamedProgress:
    def _sweep(self):
        return SweepSpec(
            name="s",
            specs=tuple(tightloop_spec(num_cores=cores) for cores in (4, 8, 16)),
        )

    def test_run_iter_yields_every_grid_point(self):
        iterator = Runner().run_iter(self._sweep())
        events = []
        while True:
            try:
                events.append(next(iterator))
            except StopIteration as stop:
                outcome = stop.value
                break
        assert [event.index for event in events] == [0, 1, 2]
        assert all(event.total == 3 and not event.cached for event in events)
        assert [event.spec.num_cores for event in events] == [4, 8, 16]
        assert outcome.num_simulated == 3
        for event in events:
            assert outcome.result_for(event.spec) is event.result

    def test_progress_hook_sees_cache_hits(self, tmp_path):
        sweep = self._sweep()
        runner = Runner(cache=ResultCache(tmp_path))
        runner.run(sweep)
        events = []
        runner.run(sweep, progress=events.append)
        assert len(events) == 3
        assert all(event.cached for event in events)

    def test_runner_level_hook_streams_through_legacy_experiments(self):
        from repro.experiments import experiment

        events = []
        experiment("fig7").frame(
            Runner(progress=events.append),
            core_counts=[8], iterations=2, configs=["WiSync", "Baseline"],
        )
        assert [event.spec.config for event in events] == ["WiSync", "Baseline"]

    def test_parallel_run_iter_streams_all_positions(self):
        specs = [tightloop_spec(num_cores=cores) for cores in (4, 8, 16)]
        pairs = list(ParallelExecutor(max_workers=3).run_iter(specs))
        assert sorted(position for position, _ in pairs) == [0, 1, 2]
        for position, result in pairs:
            assert result.num_cores == specs[position].num_cores

    def test_runner_detects_duplicate_executor_positions(self):
        class Duplicating(SerialExecutor):
            def run_iter(self, specs):
                result = execute_spec(specs[0])
                yield 0, result
                yield 0, result

        sweep = SweepSpec(
            name="s", specs=(tightloop_spec(), tightloop_spec(num_cores=4))
        )
        with pytest.raises(WorkloadError, match="more than once"):
            Runner(executor=Duplicating()).run(sweep)

    def test_runner_detects_short_executor_yield(self):
        class Short(SerialExecutor):
            def run_iter(self, specs):
                yield 0, execute_spec(specs[0])

        sweep = SweepSpec(
            name="s", specs=(tightloop_spec(), tightloop_spec(num_cores=4))
        )
        with pytest.raises(WorkloadError, match="produced 1 results for 2 specs"):
            Runner(executor=Short()).run(sweep)

    def test_describe_mentions_progress_and_source(self):
        from repro.runner.runner import SpecProgress

        spec = tightloop_spec()
        result = execute_spec(spec)
        line = SpecProgress(0, 12, spec, result, cached=True).describe()
        assert line.startswith("[ 1/12]")
        assert spec.label() in line
        assert "(cached)" in line


class TestLegacyParity:
    def test_run_fig7_matches_direct_simulation(self):
        from repro.experiments import FIG7_REPORT, experiment

        frame = experiment("fig7").frame(core_counts=[8], iterations=2, configs=["WiSync"])
        series = FIG7_REPORT.table(frame)
        direct = build_tightloop(Manycore(wisync(num_cores=8)), iterations=2).run()
        assert series[8]["WiSync"] == direct.total_cycles / 2

    def test_run_fig7_parallel_matches_serial(self):
        from repro.experiments import FIG7_REPORT, experiment

        record = experiment("fig7")
        serial = record.frame(core_counts=[8], iterations=2)
        parallel = record.frame(
            Runner(executor=ParallelExecutor(max_workers=2)), core_counts=[8], iterations=2,
        )
        assert FIG7_REPORT.table(serial) == FIG7_REPORT.table(parallel)


class TestCli:
    def _repro(self, *argv):
        env = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env,
        )

    def test_list(self):
        proc = self._repro("list", "--json")
        assert proc.returncode == 0
        inventory = json.loads(proc.stdout)
        assert "fig7" in inventory["experiments"]
        assert "tightloop" in inventory["workloads"]

    def test_run_fig7_with_cache_simulates_once(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "out.json")
        first = self._repro(
            "run", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync,Baseline+", "--cache", cache_dir, "--json", out, "--quiet",
        )
        assert first.returncode == 0, first.stderr
        assert "2 simulated, 0 cached" in first.stderr
        second = self._repro(
            "run", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync,Baseline+", "--cache", cache_dir, "--json", out, "--quiet",
        )
        assert second.returncode == 0, second.stderr
        assert "0 simulated, 2 cached" in second.stderr
        table = json.loads(Path(out).read_text())
        assert set(table["8"]) == {"WiSync", "Baseline+"}

"""Checkpoint/restore subsystem tests (``repro.snapshot``).

The acceptance bar everywhere in this file is *bit-identity*: running a spec
to completion must equal snapshotting it mid-flight, restoring, and
continuing — on ``total_cycles``, ``events_processed``, per-thread cycles,
and the full stats snapshot.  The property test draws random fig7/scenario
grid points; the golden test pins the round trip against the same
``tests/golden_runs.json`` numbers the optimization tests use.

Fault handling mirrors the ResultCache contract: a corrupt, stale-versioned,
truncated, or wrong-spec checkpoint is discarded with a structured
:class:`SnapshotWarning` and the run starts from scratch — never a crash,
never a silently wrong continuation.

The distributed drills exercise the real wire path: genuine ``repro worker``
subprocesses checkpoint into a live sweep store, get SIGTERM'd (clean
release) or SIGKILL'd (requeue + shipped-checkpoint resume), and the sweep
must still finish bit-identical to serial.
"""

import json
import signal
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frame_bodies import op_sequence
from goldens import GOLDEN_PATH, golden_specs
from repro.errors import ConfigurationError, SnapshotError
from repro.experiments.scenarios import scenario_sweep
from repro.isa.operations import Compute, WaitUntil, Write
from repro.runner import RunSpec, SerialExecutor, WorkerSupervisor
from repro.runner.cli import main
from repro.runner.distributed import DistributedExecutor
from repro.runner.executor import execute_spec
from repro.runner.registry import REGISTRY
from repro.service import JobStore
from repro.service.jobstore import SWEEP_JOB
from repro.sim.rng import DeterministicRng
from repro.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    ExecutionPreempted,
    RunManifest,
    Snapshot,
    SnapshotWarning,
    SpecExecution,
    available_runs,
    checkpoint_path,
    load_snapshot,
    parse_document,
    resume_to_completion,
    run_prefix,
    save_snapshot,
    snapshot_after,
    snapshot_document,
    try_load_snapshot,
)
from repro.workloads.base import WorkloadHandle
from sweep_host import collect, serve, sweep_store, sweep_task


def tight(iterations=60, num_cores=16, seed=0):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores, seed=seed,
    )


def assert_identical(mine, theirs):
    """The bit-identity bar: every simulated quantity, not just the headline."""
    assert mine.total_cycles == theirs.total_cycles
    assert mine.events_processed == theirs.events_processed
    assert mine.thread_cycles == theirs.thread_cycles
    assert mine.completed == theirs.completed
    assert mine.stats.to_dict() == theirs.stats.to_dict()
    assert mine.extra.get("operations") == theirs.extra.get("operations")


# ---------------------------------------------------------------------------
# RNG state capture (satellite: getstate/setstate regression)
# ---------------------------------------------------------------------------
class TestRngState:
    def _tree(self):
        root = DeterministicRng(11, "machine")
        fabric = root.child("fabric")
        macs = [fabric.child(f"mac{i}") for i in range(3)]
        return root, fabric, macs

    def _interleaved_draws(self, root, fabric, macs):
        # Deliberately interleave streams and primitives: the regression this
        # pins is save/restore in the *middle* of mixed draw sequences, not
        # just at stream construction time.
        out = []
        for i in range(5):
            out.append(root.randint(0, 1000))
            out.append(macs[i % 3].expovariate(0.5))
            out.append(fabric.random())
            out.append(macs[(i + 1) % 3].jitter(40))
            out.append(fabric.choice(["a", "b", "c", "d"]))
        return out

    def test_interleaved_draws_identical_across_save_restore(self):
        root, fabric, macs = self._tree()
        self._interleaved_draws(root, fabric, macs)  # burn a prefix
        state = root.tree_getstate()
        want = self._interleaved_draws(root, fabric, macs)

        fresh_root, fresh_fabric, fresh_macs = self._tree()
        fresh_root.tree_setstate(state)
        got = self._interleaved_draws(fresh_root, fresh_fabric, fresh_macs)
        assert got == want

    def test_getstate_is_json_safe(self):
        root, fabric, macs = self._tree()
        self._interleaved_draws(root, fabric, macs)
        state = root.tree_getstate()
        rebuilt_root, rf, rm = self._tree()
        rebuilt_root.tree_setstate(json.loads(json.dumps(state)))
        assert self._interleaved_draws(rebuilt_root, rf, rm) == \
            self._interleaved_draws(root, fabric, macs)

    def test_setstate_rejects_foreign_stream(self):
        a = DeterministicRng(1, "machine")
        b = DeterministicRng(1, "machine").child("fabric")
        with pytest.raises(SnapshotError, match="cannot be applied"):
            b.setstate(a.getstate())

    def test_setstate_rejects_foreign_root_seed(self):
        a = DeterministicRng(1, "machine")
        b = DeterministicRng(2, "machine")
        with pytest.raises(SnapshotError, match="cannot be applied"):
            b.setstate(a.getstate())

    def test_setstate_rejects_malformed_state(self):
        rng = DeterministicRng(1, "machine")
        payload = rng.getstate()
        payload["state"] = ["not", "a", "twister"]
        with pytest.raises(SnapshotError, match="malformed rng state"):
            rng.setstate(payload)

    def test_tree_setstate_rejects_missing_stream_state(self):
        root = DeterministicRng(1, "machine")
        state = root.tree_getstate()
        root.child("fabric")  # restored machine derived a stream never captured
        with pytest.raises(SnapshotError, match="no captured rng state"):
            root.tree_setstate(state)

    def test_tree_setstate_rejects_leftover_states(self):
        root = DeterministicRng(1, "machine")
        root.child("fabric")
        state = root.tree_getstate()
        bare = DeterministicRng(1, "machine")
        with pytest.raises(SnapshotError, match="no matching"):
            bare.tree_setstate(state)

    def test_tree_getstate_rejects_duplicate_names(self):
        root = DeterministicRng(1, "machine")
        root.child("fabric")
        root.child("fabric")  # same name, independent stream
        with pytest.raises(SnapshotError, match="not unique"):
            root.tree_getstate()


# ---------------------------------------------------------------------------
# Snapshot document format: versioning + integrity
# ---------------------------------------------------------------------------
class TestSnapshotFormat:
    def _snapshot(self):
        return snapshot_after(tight(), 2000)

    def test_document_round_trip(self):
        snapshot = self._snapshot()
        assert parse_document(snapshot_document(snapshot)) == snapshot

    def test_file_round_trip(self, tmp_path):
        snapshot = self._snapshot()
        path = tmp_path / "point.snapshot.json"
        save_snapshot(snapshot, path)
        assert load_snapshot(path) == snapshot

    def test_tampered_body_fails_integrity_check(self):
        document = snapshot_document(self._snapshot())
        document["snapshot"]["events_processed"] += 1
        with pytest.raises(SnapshotError, match="integrity"):
            parse_document(document)

    def test_stale_version_rejected(self):
        document = snapshot_document(self._snapshot())
        document["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="unsupported snapshot version"):
            parse_document(document)

    def test_foreign_format_rejected(self):
        with pytest.raises(SnapshotError, match="is not a"):
            parse_document({"format": "something-else", "version": 1})
        assert SNAPSHOT_FORMAT == "wisync-snapshot"

    def test_non_dict_rejected(self):
        with pytest.raises(SnapshotError, match="not a snapshot document"):
            parse_document(["nope"])

    def test_negative_event_count_rejected(self):
        with pytest.raises(SnapshotError, match="negative"):
            Snapshot(spec=tight(), events_processed=-1, clock=0)

    def test_unknown_strategy_rejected(self):
        body = dict(self._snapshot().to_dict(), strategy="psychic")
        with pytest.raises(SnapshotError, match="unknown snapshot strategy 'psychic'"):
            Snapshot.from_dict(body)

    def test_spec_key_drift_detected(self):
        # A spec whose serialization no longer hashes to the recorded key
        # means RunSpec.key() semantics moved underneath the checkpoint.
        body = self._snapshot().to_dict()
        body["spec_key"] = "0" * 64
        with pytest.raises(SnapshotError, match="spec_key"):
            Snapshot.from_dict(body)

    def test_try_load_missing_file_is_silent(self, tmp_path):
        assert try_load_snapshot(tmp_path / "absent.json") == (None, None)

    def test_try_load_corrupt_file_returns_reason(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        snapshot, reason = try_load_snapshot(path)
        assert snapshot is None
        assert "not valid JSON" in reason

    def test_try_load_valid_file(self, tmp_path):
        want = self._snapshot()
        path = save_snapshot(want, tmp_path / "good.json")
        assert try_load_snapshot(path) == (want, None)

    def test_describe_summarizes_the_capture(self):
        snapshot = self._snapshot()
        summary = snapshot.describe()
        assert summary["events_processed"] == 2000
        assert summary["strategy"] == "native"
        assert summary["spec_key"] == snapshot.spec.key()
        assert summary["rng_streams"] > 0


# ---------------------------------------------------------------------------
# Capture / restore bit-identity
# ---------------------------------------------------------------------------
class TestCaptureRestore:
    def test_midpoint_snapshot_restore_continue_is_bit_identical(self):
        spec = tight()
        full = execute_spec(spec)
        snapshot = snapshot_after(spec, full.events_processed // 2)
        resumed = resume_to_completion(snapshot)
        assert_identical(resumed, full)

    def test_snapshot_round_trips_through_disk(self, tmp_path):
        spec = tight()
        full = execute_spec(spec)
        path = save_snapshot(snapshot_after(spec, 3000), tmp_path / "mid.json")
        assert_identical(resume_to_completion(load_snapshot(path)), full)

    def test_repeated_checkpointing_is_bit_identical(self):
        spec = tight()
        full = execute_spec(spec)
        captured = []
        execution = SpecExecution(spec)
        sliced = execution.run_to_completion(
            checkpoint_every=1500, on_checkpoint=captured.append
        )
        assert_identical(sliced, full)
        assert len(captured) >= 2
        assert [c.events_processed for c in captured] == sorted(
            c.events_processed for c in captured
        )
        # Every intermediate checkpoint is itself a valid restore point.
        assert_identical(resume_to_completion(captured[-1]), full)

    def test_nothing_left_to_snapshot_is_a_clear_error(self):
        spec = tight(iterations=2, num_cores=4)
        with pytest.raises(SnapshotError, match="nothing left to snapshot"):
            run_prefix(spec, 10_000_000)

    def test_capture_after_completion_is_rejected(self):
        execution = SpecExecution(tight(iterations=2, num_cores=4))
        execution.run_to_completion()
        with pytest.raises(SnapshotError, match="nothing to checkpoint"):
            execution.capture()

    def test_thread_parked_on_an_opaque_callable_cannot_be_captured(self, monkeypatch):
        # There is no fallback strategy: a wait on a raw lambda has no
        # describable predicate, so the capture itself fails.
        def build(machine):
            program = machine.new_program("lambda-wait")
            flag = program.alloc_shared()
            program.add_thread(
                op_sequence(machine, "waiter", WaitUntil(flag, lambda v: v == 1))
            )
            program.add_thread(
                op_sequence(machine, "writer", Compute(1_000), Write(flag, 1))
            )
            return WorkloadHandle("lambda-wait", machine, program, 2, {})

        monkeypatch.setitem(REGISTRY._builders, "lambda_wait", build)
        spec = RunSpec(workload="lambda_wait", config="Baseline", num_cores=2)
        execution = run_prefix(spec, 2)  # the waiter is parked on the lambda
        with pytest.raises(SnapshotError, match="opaque callable"):
            execution.capture()

    def test_native_strategy_without_payload_is_rejected(self):
        snapshot = Snapshot(spec=tight(), events_processed=100, clock=100)
        with pytest.raises(SnapshotError, match="no machine payload"):
            SpecExecution.from_snapshot(snapshot)

    def test_native_verification_catches_drift(self):
        real = snapshot_after(tight(), 2000)
        native = dict(real.native)
        rng = {name: dict(state) for name, state in native["rng"].items()}
        name = sorted(rng)[0]
        rng[name] = dict(rng[name], state=[3, [0] * 625, None])
        native["rng"] = rng
        tampered = Snapshot(
            spec=real.spec, events_processed=real.events_processed,
            clock=real.clock, native=native, machine=real.machine,
        )
        with pytest.raises(SnapshotError, match="diverged.*rng"):
            SpecExecution.from_snapshot(tampered)


# ---------------------------------------------------------------------------
# Property: restore-continue == uninterrupted, for random grid points
# ---------------------------------------------------------------------------
FIG7_SPECS = st.builds(
    tight,
    iterations=st.integers(min_value=2, max_value=5),
    num_cores=st.sampled_from([4, 8, 16]),
    seed=st.integers(min_value=0, max_value=3),
)


def _scenario_spec(scenario, level, backoff):
    sweep = scenario_sweep(
        scenarios=[scenario], core_counts=[8], configs=["WiSync"],
        contention=[level], backoffs=[backoff],
    )
    return sweep.specs[0]


SCENARIO_SPECS = st.builds(
    _scenario_spec,
    scenario=st.sampled_from(
        ["barrier_storm", "mixed_phases", "pc_ring", "rwlock", "work_steal"]
    ),
    level=st.sampled_from(["low", "high"]),
    backoff=st.sampled_from(["broadcast_aware", "exponential"]),
)


class TestSnapshotProperty:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.one_of(FIG7_SPECS, SCENARIO_SPECS),
        tenths=st.integers(min_value=1, max_value=9),
    )
    def test_restore_continue_equals_uninterrupted(self, spec, tenths):
        full = execute_spec(spec)
        cut = max(1, full.events_processed * tenths // 10)
        if cut >= full.events_processed:
            cut = full.events_processed - 1
        snapshot = snapshot_after(spec, cut)
        assert snapshot.events_processed == cut
        resumed = resume_to_completion(snapshot)
        assert_identical(resumed, full)


# ---------------------------------------------------------------------------
# Golden pinning: the round trip reproduces the pre-optimization numbers
# ---------------------------------------------------------------------------
def _golden_subset():
    """One spec per experiment family keeps the pinned round trip fast."""
    specs = golden_specs()
    by_family = {}
    for spec in specs:
        by_family.setdefault(spec.workload, spec)
    return list(by_family.values())


@pytest.mark.parametrize("spec", _golden_subset(), ids=lambda spec: spec.label())
def test_snapshot_round_trip_matches_golden(spec):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as stream:
        want = json.load(stream)[spec.key()]
    baseline_events = want["events_processed"]
    snapshot = snapshot_after(spec, max(1, baseline_events // 2))
    resumed = resume_to_completion(snapshot)
    assert resumed.total_cycles == want["total_cycles"]
    assert resumed.events_processed == baseline_events
    assert resumed.stats.snapshot() == want["snapshot"]


# ---------------------------------------------------------------------------
# Checkpoint files: resume, corruption fallback, cleanup
# ---------------------------------------------------------------------------
class TestCheckpointedExecution:
    def test_checkpointed_run_writes_then_cleans_up(self, tmp_path):
        spec = tight()
        seen = []
        result = execute_spec(
            spec, checkpoint_every=1500, checkpoint_dir=tmp_path,
            on_checkpoint=lambda snap: seen.append(
                checkpoint_path(tmp_path, spec).exists()
            ),
        )
        assert_identical(result, execute_spec(spec))
        assert seen and all(seen)  # file present at every checkpoint...
        assert not checkpoint_path(tmp_path, spec).exists()  # ...gone at the end

    def test_resumes_from_existing_checkpoint_file(self, tmp_path, monkeypatch):
        spec = tight()
        path = save_snapshot(snapshot_after(spec, 3000), checkpoint_path(tmp_path, spec))
        # The native v2 body layout earlier builds wrote too, so their
        # checkpoints keep restoring.
        body = json.loads(path.read_text(encoding="utf-8"))["snapshot"]
        assert sorted(body) == [
            "clock", "events_processed", "machine", "native", "spec", "spec_key",
            "strategy",
        ]
        assert body["strategy"] == "native"

        restored = []
        original = SpecExecution.from_snapshot.__func__

        def spy(cls, snapshot, **kwargs):
            restored.append(snapshot.events_processed)
            return original(cls, snapshot, **kwargs)

        monkeypatch.setattr(
            SpecExecution, "from_snapshot", classmethod(spy)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", SnapshotWarning)
            result = execute_spec(spec, checkpoint_dir=str(tmp_path))
        assert restored == [3000]
        assert_identical(result, execute_spec(spec))
        assert not checkpoint_path(tmp_path, spec).exists()

    @pytest.mark.parametrize(
        "corruption, reason",
        [
            ("not-json", "not valid JSON"),
            ("stale-version", "unsupported snapshot version"),
            ("bad-hash", "integrity"),
            ("wrong-spec", "different spec"),
        ],
    )
    def test_unusable_checkpoint_warns_and_falls_back(
        self, tmp_path, corruption, reason
    ):
        spec = tight()
        path = checkpoint_path(tmp_path, spec)
        if corruption == "not-json":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{ truncated", encoding="utf-8")
        elif corruption == "wrong-spec":
            save_snapshot(snapshot_after(tight(seed=7), 2000), path)
        else:
            document = snapshot_document(snapshot_after(spec, 2000))
            if corruption == "stale-version":
                document["version"] = SNAPSHOT_VERSION + 1
            else:
                document["snapshot"]["clock"] += 1
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(document), encoding="utf-8")

        with pytest.warns(SnapshotWarning, match=reason):
            result = execute_spec(spec, checkpoint_dir=str(tmp_path))
        # ResultCache-style eviction: warn, delete, run from scratch — and
        # the from-scratch result is still the correct one.
        assert_identical(result, execute_spec(spec))
        assert not path.exists()

    def test_drifted_native_payload_warns_and_falls_back(self, tmp_path):
        spec = tight()
        real = snapshot_after(spec, 2000)
        native = dict(real.native, finished_threads=999)
        save_snapshot(
            Snapshot(
                spec=spec, events_processed=real.events_processed,
                clock=real.clock, native=native, machine=real.machine,
            ),
            checkpoint_path(tmp_path, spec),
        )
        with pytest.warns(SnapshotWarning, match="diverged"):
            result = execute_spec(spec, checkpoint_dir=str(tmp_path))
        assert_identical(result, execute_spec(spec))

    def test_preemption_persists_a_final_snapshot(self, tmp_path):
        spec = tight()
        execution_events = []

        def should_stop():
            return bool(execution_events) and execution_events[-1] >= 3000

        with pytest.raises(ExecutionPreempted) as preempted:
            execute_spec(
                spec, checkpoint_every=1000, checkpoint_dir=tmp_path,
                should_stop=should_stop,
                on_checkpoint=lambda s: execution_events.append(s.events_processed),
            )
        path = checkpoint_path(tmp_path, spec)
        assert path.exists()
        assert load_snapshot(path) == preempted.value.snapshot
        # The preempted run resumes to a bit-identical completion.
        resumed = execute_spec(spec, checkpoint_dir=str(tmp_path))
        assert_identical(resumed, execute_spec(spec))
        assert not path.exists()

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(SnapshotError, match="positive"):
            SpecExecution(tight()).run_to_completion(checkpoint_every=0)


# ---------------------------------------------------------------------------
# Run manifests: repro run --resume bookkeeping
# ---------------------------------------------------------------------------
class TestRunManifest:
    def test_create_load_round_trip(self, tmp_path):
        manifest = RunManifest.create(
            "fig7", {"cores": [8], "iterations": 2}, runs_dir=tmp_path,
            run_id="r1",
        )
        loaded = RunManifest.load("r1", runs_dir=tmp_path)
        assert loaded.experiment == "fig7"
        assert loaded.args == {"cores": [8], "iterations": 2}
        assert loaded.status == "running"
        assert loaded.checkpoint_dir.is_dir()
        assert loaded.cache_dir() == str(manifest.results_dir)

    def test_duplicate_run_id_is_rejected_with_resume_hint(self, tmp_path):
        RunManifest.create("fig7", {}, runs_dir=tmp_path, run_id="r1")
        with pytest.raises(SnapshotError, match="--resume r1"):
            RunManifest.create("fig7", {}, runs_dir=tmp_path, run_id="r1")

    def test_missing_run_lists_known_runs(self, tmp_path):
        RunManifest.create("fig7", {}, runs_dir=tmp_path, run_id="seen")
        with pytest.raises(SnapshotError, match="known runs: seen"):
            RunManifest.load("absent", runs_dir=tmp_path)

    def test_available_runs_and_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        RunManifest.create("fig7", {}, run_id="b")
        RunManifest.create("fig7", {}, run_id="a")
        assert available_runs() == ["a", "b"]


class TestRunResumeCli:
    def _run(self, *argv):
        return main(list(argv))

    def test_resumed_sweep_is_bit_identical_and_all_cached(self, tmp_path, capsys):
        out1, out2 = tmp_path / "first.json", tmp_path / "resumed.json"
        runs = str(tmp_path / "runs")
        base = [
            "run", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync", "--runs-dir", runs,
        ]
        assert self._run(*base, "--run-id", "t1", "--json", str(out1)) == 0
        capsys.readouterr()
        assert self._run(
            "run", "--resume", "t1", "--runs-dir", runs, "--json", str(out2)
        ) == 0
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())
        manifest = RunManifest.load("t1", runs_dir=runs)
        assert manifest.status == "completed"
        # The run's results/ cache answers every grid point on resume.
        assert "fig7: 0 simulated, 1 cached" in capsys.readouterr().err

    def test_run_without_experiment_or_resume_is_an_error(self, tmp_path):
        assert self._run("run", "--runs-dir", str(tmp_path)) == 2

    def test_resume_conflicts_with_run_id(self, tmp_path):
        assert self._run(
            "run", "--resume", "t1", "--run-id", "t2",
            "--runs-dir", str(tmp_path),
        ) == 2

    def test_resume_rejects_experiment_mismatch(self, tmp_path):
        runs = str(tmp_path / "runs")
        RunManifest.create("fig7", {}, runs_dir=runs, run_id="t1")
        assert self._run("run", "fig9", "--resume", "t1", "--runs-dir", runs) == 2

    def test_no_manifest_conflicts_with_checkpointing(self):
        assert self._run(
            "run", "fig7", "--no-manifest", "--checkpoint-every", "1000",
        ) == 2

    def test_parallel_execution_rejects_checkpointing(self, tmp_path):
        assert self._run(
            "run", "fig7", "--parallel", "2", "--checkpoint-every", "1000",
            "--runs-dir", str(tmp_path),
        ) == 2


class TestSnapshotCli:
    def test_save_inspect_restore_round_trip(self, tmp_path, capsys):
        path = tmp_path / "mid.snapshot.json"
        assert main([
            "snapshot", "save", "--workload", "tightloop",
            "--param", "iterations=60", "--cores", "16",
            "--events", "3000", "--output", str(path),
        ]) == 0
        assert path.exists()

        assert main(["snapshot", "inspect", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events_processed"] == 3000
        assert summary["strategy"] == "native"

        result_path = tmp_path / "result.json"
        assert main([
            "snapshot", "restore", str(path), "--json", str(result_path),
        ]) == 0
        payload = json.loads(result_path.read_text())
        baseline = execute_spec(tight(seed=2016))  # the CLI's default seed
        assert payload["total_cycles"] == baseline.total_cycles
        assert payload["events_processed"] == baseline.events_processed

    def test_restore_of_tampered_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "mid.snapshot.json"
        save_snapshot(snapshot_after(tight(), 2000), path)
        document = json.loads(path.read_text())
        document["snapshot"]["clock"] += 1
        path.write_text(json.dumps(document))
        assert main(["snapshot", "restore", str(path)]) == 2


# ---------------------------------------------------------------------------
# Broker checkpoint protocol (the store's in-process state machine)
# ---------------------------------------------------------------------------
class TestBrokerCheckpointProtocol:
    def _store(self, spec, **kwargs):
        store = sweep_store([spec], **kwargs)
        store.claim_worker("a")
        store.claim_worker("b")
        return store

    def test_rejects_non_positive_checkpoint_every(self):
        with pytest.raises(ConfigurationError, match="positive"):
            JobStore(checkpoint_every=0)

    def test_checkpoint_stored_and_replayed_to_next_assignee(self):
        spec = tight()
        document = snapshot_document(snapshot_after(spec, 2000))
        store = self._store(spec, checkpoint_every=2000)
        assert store.assign("a")["type"] == "task"
        store.checkpoint(SWEEP_JOB, 0, "a", document)
        assert store.stats["checkpoints"] == 1
        store.release(SWEEP_JOB, 0, "a", document)
        assert store.stats["released"] == 1
        # The refunded attempt means a clean release never burns retry budget.
        assert sweep_task(store).attempts == 0
        reassigned = store.assign("b")
        assert reassigned["type"] == "task"
        assert reassigned["checkpoint_every"] == 2000
        assert parse_document(reassigned["checkpoint"]).events_processed == 2000
        assert store.stats["resumed"] == 1

    def test_checkpoint_from_non_lease_holder_is_ignored(self):
        spec = tight()
        store = self._store(spec)
        store.assign("a")
        store.checkpoint(
            SWEEP_JOB, 0, "b", snapshot_document(snapshot_after(spec, 2000))
        )
        assert store.stats["checkpoints"] == 0
        assert sweep_task(store).checkpoint is None

    def test_corrupt_shipment_keeps_the_previous_checkpoint(self):
        spec = tight()
        store = self._store(spec)
        store.assign("a")
        good = snapshot_document(snapshot_after(spec, 2000))
        store.checkpoint(SWEEP_JOB, 0, "a", good)
        bad = snapshot_document(snapshot_after(spec, 3000))
        bad["sha256"] = "0" * 64
        store.checkpoint(SWEEP_JOB, 0, "a", bad)
        assert store.stats["checkpoints"] == 1
        assert sweep_task(store).checkpoint.events_processed == 2000

    def test_wrong_spec_shipment_is_ignored(self):
        spec = tight()
        store = self._store(spec)
        store.assign("a")
        foreign = snapshot_document(snapshot_after(tight(seed=9), 2000))
        store.checkpoint(SWEEP_JOB, 0, "a", foreign)
        assert sweep_task(store).checkpoint is None

    def test_checkpoints_preloaded_from_disk(self, tmp_path):
        spec = tight()
        save_snapshot(snapshot_after(spec, 2500), checkpoint_path(tmp_path, spec))
        store = self._store(spec, checkpoint_dir=str(tmp_path))
        assert sweep_task(store).checkpoint.events_processed == 2500
        message = store.assign("a")
        assert parse_document(message["checkpoint"]).events_processed == 2500

    def test_completion_deletes_the_persisted_checkpoint(self, tmp_path):
        spec = tight()
        store = self._store(spec, checkpoint_every=2000,
                            checkpoint_dir=str(tmp_path))
        store.assign("a")
        store.checkpoint(
            SWEEP_JOB, 0, "a", snapshot_document(snapshot_after(spec, 2000))
        )
        assert checkpoint_path(tmp_path, spec).exists()
        store.complete(SWEEP_JOB, 0, "a", execute_spec(spec).to_dict())
        assert not checkpoint_path(tmp_path, spec).exists()
        assert sweep_task(store).checkpoint is None


# ---------------------------------------------------------------------------
# Distributed drills over the real wire path
# ---------------------------------------------------------------------------
def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDistributedCheckpointing:
    def test_checkpointed_sweep_is_bit_identical_to_serial(self, tmp_path):
        specs = [tight(iterations=120), tight(iterations=120, seed=1)]
        serial = SerialExecutor().run(specs)
        executor = DistributedExecutor(
            workers=1, lease_seconds=10.0, checkpoint_every=2000,
            checkpoint_dir=str(tmp_path),
        )
        distributed = executor.run(specs)
        for mine, theirs in zip(serial, distributed):
            assert_identical(mine, theirs)
        assert executor.last_stats["checkpoints"] >= 1
        assert executor.last_stats["failed"] == 0
        assert list(tmp_path.glob("*.ckpt.json")) == []  # cleaned on completion

    def test_sigterm_worker_releases_then_replacement_resumes(self):
        # The preemptible-worker drill: SIGTERM mid-spec must produce a clean
        # `release` (exit 0, attempt refunded, snapshot shipped), and the
        # replacement worker must continue from the shipped checkpoint to a
        # bit-identical result.
        spec = tight(iterations=400)
        serial = execute_spec(spec)
        store = sweep_store([spec], checkpoint_every=2000)
        broker = serve(store)
        try:
            # A SIGTERM'd worker exits 0, so its supervisor retires it.
            with WorkerSupervisor(
                "127.0.0.1", broker.port, 1, heartbeat=0.1
            ) as first:
                assert _wait_for(lambda: store.stats["checkpoints"] >= 1)
                assert first.kill(0, signal.SIGTERM) == 0
                assert _wait_for(lambda: store.stats["released"] >= 1, timeout=5)
            # Released, not completed.
            assert store.job_summary(SWEEP_JOB)["pending"] == 1
            with WorkerSupervisor("127.0.0.1", broker.port, 1, heartbeat=0.1):
                results = collect(store)
        finally:
            broker.close()
        assert list(results) == [0]
        assert store.stats["released"] == 1
        assert store.stats["resumed"] >= 1
        assert store.stats["failed"] == 0
        assert_identical(results[0], serial)

    def test_sigkilled_worker_resumes_from_shipped_checkpoint(self):
        # The harsher drill: SIGKILL gives the worker no chance to release.
        # The store already holds its last shipped checkpoint, so the
        # replacement (the supervisor's respawn) continues mid-spec instead
        # of from zero.
        spec = tight(iterations=400)
        serial = execute_spec(spec)
        store = sweep_store([spec], checkpoint_every=2000)
        broker = serve(store)
        try:
            with WorkerSupervisor(
                "127.0.0.1", broker.port, 1, heartbeat=0.1,
                backoff_base=0.1, backoff_cap=0.5,
            ) as pool:
                assert _wait_for(lambda: store.stats["checkpoints"] >= 1)
                pool.kill(0)
                results = collect(store)
            assert pool.respawns == 1
        finally:
            broker.close()
        assert list(results) == [0]
        assert store.stats["requeued"] >= 1
        assert store.stats["resumed"] >= 1
        assert store.stats["failed"] == 0
        assert_identical(results[0], serial)

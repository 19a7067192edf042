"""Chaos drills, worker supervision, deadlines, and broker-redial tests.

The chaos sections execute seeded fault schedules (broker SIGKILL-equivalent
restarts, worker SIGKILLs) against a live sweep and hold the fabric to the
one invariant that matters: results bit-identical to a serial run.
``REPRO_CHAOS_SCHEDULES`` scales the number of seeded schedules (CI sets 25;
the tier-1 default stays small).  The subprocess drill — real SIGKILLs
against a real ``repro run --bind`` sweep host, relaunched with
``--resume`` — runs as ``repro chaos`` in CI's chaos-drill job.
"""

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, PartialSweepError
from repro.runner import (
    DistributedExecutor,
    RunSpec,
    SerialExecutor,
    WorkerSupervisor,
    backoff_delays,
)
from repro.runner.chaos import (
    ChaosSchedule,
    KillEvent,
    results_identical,
    run_embedded_drill,
    verify_against_serial,
)
from sweep_host import collect, serve, sweep_store

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Seeded schedules per chaos test; CI raises this to 25.
CHAOS_SCHEDULES = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "3"))


def tightloop_spec(num_cores=8, iterations=2):
    return RunSpec(
        workload="tightloop", params={"iterations": iterations},
        config="WiSync", num_cores=num_cores,
    )


def drill_grid():
    return [
        tightloop_spec(num_cores, iterations)
        for iterations in (60, 120)
        for num_cores in (8, 16)
    ]


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        assert ChaosSchedule.generate(7) == ChaosSchedule.generate(7)

    def test_one_kill_per_requested_target(self):
        schedule = ChaosSchedule.generate(0, targets=("broker", "worker"))
        assert sorted(kill.target for kill in schedule.kills) == [
            "broker", "worker",
        ]

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos kill"):
            ChaosSchedule.generate(0, targets=("rack",))

    def test_describe_names_the_seed_and_kills(self):
        text = ChaosSchedule.generate(3).describe()
        assert "seed 3" in text
        assert "broker@" in text


class TestEmbeddedDrill:
    @pytest.mark.parametrize("seed", range(CHAOS_SCHEDULES))
    def test_seeded_schedule_is_bit_identical_to_serial(self, seed, tmp_path):
        specs = drill_grid()
        schedule = ChaosSchedule.generate(
            seed, targets=("broker", "worker"), window=(0.2, 1.5), workers=2
        )
        report = run_embedded_drill(
            specs, schedule, tmp_path / "checkpoints",
            pool=2, lease_seconds=10.0, checkpoint_every=2000, timeout=120.0,
        )
        problems = verify_against_serial(specs, report)
        assert problems == [], f"{schedule.describe()}: {problems}"
        assert report.all_completed(len(specs))

    def test_results_identical_rejects_cycle_divergence(self):
        mine, theirs = SerialExecutor().run(
            [tightloop_spec(8), tightloop_spec(16)]
        )
        assert results_identical(mine, mine)
        assert not results_identical(mine, theirs)


class TestWorkerSupervisor:
    def test_killed_worker_is_respawned_and_the_sweep_completes(self):
        specs = drill_grid()
        store = sweep_store(specs)
        broker = serve(store)
        supervisor = WorkerSupervisor(
            "127.0.0.1", broker.port, 1,
            heartbeat=0.2, backoff_base=0.1, backoff_cap=0.5,
        )
        try:
            deadline = time.monotonic() + 30
            while store.stats["assigned"] == 0:
                assert time.monotonic() < deadline, "task never assigned"
                time.sleep(0.02)
            supervisor.kill(0)  # SIGKILL mid-lease; the supervisor recovers
            collected = collect(store)
        finally:
            supervisor.close()
            broker.close()
        assert supervisor.respawns >= 1
        serial = SerialExecutor().run(specs)
        assert sorted(collected) == list(range(len(specs)))
        for position, result in collected.items():
            assert results_identical(result, serial[position])

    def test_circuit_breaker_parks_a_flapping_slot(self):
        # exit-on-task dies seconds after every spawn; after max_rapid_failures
        # consecutive rapid deaths the breaker opens instead of burning the
        # sweep's attempt budget with doomed respawns.
        broker = serve(sweep_store([tightloop_spec(4)], lease_seconds=5.0))
        supervisor = WorkerSupervisor(
            "127.0.0.1", broker.port, 1,
            faults=["exit-on-task"], respawn_faulted=True,
            max_rapid_failures=2, backoff_base=0.1, backoff_cap=0.2,
        )
        try:
            deadline = time.monotonic() + 30
            while not supervisor.sick():
                assert time.monotonic() < deadline, "breaker never opened"
                time.sleep(0.05)
            assert supervisor.respawns >= 1
            while not supervisor.gave_up():
                assert time.monotonic() < deadline, "sick slot still pending"
                time.sleep(0.05)
        finally:
            supervisor.close()
            broker.close()

    def test_faulted_slot_stays_dead_by_default(self):
        # Fault-injection tests rely on a killed worker *staying* dead;
        # respawning is opt-in (respawn_faulted / `repro workers --fault`).
        broker = serve(sweep_store([tightloop_spec(4)], lease_seconds=5.0))
        supervisor = WorkerSupervisor(
            "127.0.0.1", broker.port, 1, faults=["exit-on-task"]
        )
        try:
            deadline = time.monotonic() + 30
            while not supervisor.gave_up():
                assert time.monotonic() < deadline, "corpse never abandoned"
                time.sleep(0.05)
            assert supervisor.respawns == 0
            assert not supervisor.sick()
        finally:
            supervisor.close()
            broker.close()

    def test_worker_failing_after_a_sibling_drained_is_not_respawned(self):
        # Once one worker of the pool has drained, the sweep it served is
        # over: a worker that fails afterwards (one that started too late
        # and found the sweep host gone) is retired, so the pool ends.
        import signal

        store = sweep_store([tightloop_spec(16, iterations=2000)])
        broker = serve(store)
        supervisor = WorkerSupervisor(
            "127.0.0.1", broker.port, 2, backoff_base=0.1, backoff_cap=0.2,
        )
        try:
            deadline = time.monotonic() + 30
            while store.worker_count() < 2:
                assert time.monotonic() < deadline, "workers never joined"
                time.sleep(0.02)
            assert supervisor.kill(0, signal.SIGTERM) == 0  # drains
            supervisor.kill(1)
            while not supervisor.gave_up():
                assert time.monotonic() < deadline, "the pool never ended"
                time.sleep(0.05)
            assert supervisor.respawns == 0
            assert supervisor.drained()
        finally:
            supervisor.close()
            broker.close()

    def test_pool_requires_at_least_one_worker(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            WorkerSupervisor("127.0.0.1", 1, 0)


class TestBackoff:
    def test_delays_jitter_double_and_cap(self):
        delays = backoff_delays(0.1, 0.4, rng=random.Random(7))
        values = [next(delays) for _ in range(8)]
        assert all(value > 0 for value in values)
        # Jitter is at most 1.5x the capped base delay.
        assert max(values) <= 0.4 * 1.5
        # The underlying schedule doubles: late delays dwarf the first.
        assert max(values[3:]) > values[0]

    def test_rejects_non_positive_base_or_cap(self):
        with pytest.raises(ConfigurationError, match="positive"):
            backoff_delays(0.0, 1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            backoff_delays(0.5, -1.0)


class TestDeadlines:
    def _slow_spec(self):
        return tightloop_spec(16, iterations=2000)  # ~2-3s of wall clock

    def test_serial_spec_deadline_degrades_gracefully(self):
        fast, slow = tightloop_spec(8), self._slow_spec()
        executor = SerialExecutor(checkpoint_every=1000, spec_deadline=0.4)
        received = {}
        with pytest.raises(PartialSweepError) as excinfo:
            for position, result in executor.run_iter([fast, slow]):
                received[position] = result
        assert sorted(received) == [0]  # the fast spec's result survived
        assert [spec for spec, _ in excinfo.value.timed_out] == [slow]
        assert "degraded gracefully" in str(excinfo.value)
        assert "deadline exceeded" in excinfo.value.timed_out[0][1]

    def test_serial_sweep_budget_skips_the_remainder(self):
        fast, slow, tail = tightloop_spec(8), self._slow_spec(), tightloop_spec(4)
        executor = SerialExecutor(checkpoint_every=1000, sweep_deadline=0.4)
        received = {}
        with pytest.raises(PartialSweepError) as excinfo:
            for position, result in executor.run_iter([fast, slow, tail]):
                received[position] = result
        assert sorted(received) == [0]
        timed_out = excinfo.value.timed_out
        assert [spec for spec, _ in timed_out] == [slow, tail]
        assert all("budget exhausted" in reason for _, reason in timed_out)

    def test_serial_preemption_persists_a_resume_checkpoint(self, tmp_path):
        from repro.snapshot import checkpoint_path

        slow = self._slow_spec()
        executor = SerialExecutor(
            checkpoint_every=1000, spec_deadline=0.3,
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(PartialSweepError):
            list(executor.run_iter([slow]))
        assert Path(checkpoint_path(str(tmp_path), slow)).exists()

    @pytest.mark.parametrize("disk_full", [False, True])
    def test_serial_preemption_writes_its_snapshot_once(
        self, tmp_path, monkeypatch, disk_full
    ):
        # One write per preemption; a failing one costs resume granularity
        # only, so the sweep still degrades into a PartialSweepError that
        # names the spec instead of dying on the raw OSError.
        import repro.snapshot
        import repro.snapshot.execution
        import repro.snapshot.format
        from repro.snapshot import checkpoint_path

        real_save = repro.snapshot.format.save_snapshot
        writes = []

        def save(snapshot, path):
            writes.append(Path(path))
            if disk_full:
                raise OSError(28, "No space left on device")
            return real_save(snapshot, path)

        for module in (repro.snapshot, repro.snapshot.execution, repro.snapshot.format):
            monkeypatch.setattr(module, "save_snapshot", save, raising=False)
        slow = tightloop_spec(16, iterations=4000)
        executor = SerialExecutor(checkpoint_dir=str(tmp_path), spec_deadline=0.05)
        with pytest.raises(PartialSweepError) as excinfo:
            list(executor.run_iter([slow]))
        assert [spec for spec, _ in excinfo.value.timed_out] == [slow]
        assert slow.label() in str(excinfo.value)
        path = checkpoint_path(str(tmp_path), slow)
        assert writes == [path]
        assert path.exists() != disk_full

    def test_serial_rejects_non_positive_deadlines(self):
        with pytest.raises(ConfigurationError, match="spec_deadline"):
            SerialExecutor(spec_deadline=0.0)
        with pytest.raises(ConfigurationError, match="sweep_deadline"):
            SerialExecutor(sweep_deadline=-1.0)

    def test_distributed_spec_deadline_degrades_gracefully(self):
        fast, slow = tightloop_spec(8), self._slow_spec()
        executor = DistributedExecutor(
            workers=1, lease_seconds=10.0, heartbeat=0.2, spec_deadline=0.5
        )
        received = {}
        with pytest.raises(PartialSweepError) as excinfo:
            for position, result in executor.run_iter([fast, slow]):
                received[position] = result
        assert 0 in received
        assert slow in [spec for spec, _ in excinfo.value.timed_out]
        assert executor.last_stats["timed_out"] >= 1
        assert executor.last_stats["completed"] >= 1

    def test_distributed_sweep_budget_fails_all_pending(self):
        specs = [tightloop_spec(8), self._slow_spec(),
                 tightloop_spec(4, iterations=2000)]
        executor = DistributedExecutor(
            workers=1, lease_seconds=10.0, heartbeat=0.2, sweep_deadline=0.6
        )
        received = {}
        with pytest.raises(PartialSweepError) as excinfo:
            for position, result in executor.run_iter(specs):
                received[position] = result
        assert 0 in received
        assert len(excinfo.value.timed_out) >= 1
        assert executor.last_stats["timed_out"] >= 1


class TestWorkerRedial:
    def test_idle_worker_rejoins_a_restarted_broker(self):
        # Satellite (b): a worker that loses the broker while *idle* must
        # redial first, not treat the EOF as a drained sweep.  A scripted
        # two-incarnation broker makes the sequence deterministic: the first
        # incarnation dies mid-idle, the second serves a real task.
        from repro.runner.distributed import run_worker

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        spec_payload = tightloop_spec(4).to_dict()
        box = {}

        def broker_script():
            # Incarnation 1: handshake, one idle round, then die at idle.
            conn, _ = server.accept()
            reader = conn.makefile("r", encoding="utf-8")
            box["hello"] = json.loads(reader.readline())
            conn.sendall(b'{"type": "welcome", "lease_seconds": 10.0}\n')
            json.loads(reader.readline())  # next
            conn.sendall(b'{"type": "idle", "delay": 0.05}\n')
            json.loads(reader.readline())  # next
            # shutdown() before close(): the makefile reader holds a dup'd
            # FD, so close() alone would not deliver the EOF a dead broker's
            # kernel sends.
            conn.shutdown(socket.SHUT_RDWR)
            conn.close()  # SIGKILL'd broker reads as a clean EOF at idle
            # Incarnation 2: the worker redials the same address; serve a
            # real task, collect its result, then drain the worker.
            conn, _ = server.accept()
            reader = conn.makefile("r", encoding="utf-8")
            box["rejoin_hello"] = json.loads(reader.readline())
            conn.sendall(b'{"type": "welcome", "lease_seconds": 10.0}\n')
            json.loads(reader.readline())  # next
            conn.sendall((json.dumps({
                "type": "task", "task": 0, "payload": spec_payload,
            }) + "\n").encode("utf-8"))
            while True:  # skip heartbeats until the result lands
                message = json.loads(reader.readline())
                if message.get("type") == "result":
                    box["result"] = message
                    break
            json.loads(reader.readline())  # next
            conn.sendall(b'{"type": "drain"}\n')
            conn.close()

        script = threading.Thread(target=broker_script, daemon=True)
        script.start()
        try:
            completed = run_worker(
                "127.0.0.1", port, heartbeat=5.0, redial=10.0
            )
        finally:
            server.close()
        script.join(timeout=10)
        assert not script.is_alive(), "broker script never saw the rejoin"
        assert completed == 1
        assert box["result"]["task"] == 0
        # Same worker name across redials: broker-side exclusions persist.
        assert box["rejoin_hello"]["worker"] == box["hello"]["worker"]

    def test_idle_broker_loss_without_redial_stays_a_clean_drain(self):
        from repro.runner.distributed import run_worker

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def broker_script():
            conn, _ = server.accept()
            reader = conn.makefile("r", encoding="utf-8")
            json.loads(reader.readline())  # hello
            conn.sendall(b'{"type": "welcome", "lease_seconds": 10.0}\n')
            json.loads(reader.readline())  # next
            conn.shutdown(socket.SHUT_RDWR)
            conn.close()

        script = threading.Thread(target=broker_script, daemon=True)
        script.start()
        try:
            completed = run_worker("127.0.0.1", port, heartbeat=5.0)
        finally:
            server.close()
        assert completed == 0  # drained, no error: nothing was lost


class TestCliSurface:
    def _repro(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env={"PYTHONPATH": SRC},
        )

    def test_parser_accepts_chaos_and_workers_commands(self):
        from repro.runner.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "fig7", "--seed", "3", "--kills", "broker,worker"]
        )
        assert args.command == "chaos"
        assert args.seed == 3
        assert args.kills == ["broker", "worker"]
        args = build_parser().parse_args(
            ["workers", "--connect", "sweephost:7787", "--pool", "4"]
        )
        assert args.command == "workers"
        assert args.pool == 4

    def test_run_has_no_journal_flag(self):
        # A killed sweep host resumes from its run manifest; only
        # 'repro serve' keeps a journal.
        proc = self._repro("run", "fig7", "--cores", "8", "--journal")
        assert proc.returncode == 2
        assert "unrecognized arguments: --journal" in proc.stderr

    def test_deadlines_not_supported_with_parallel(self):
        proc = self._repro(
            "run", "fig7", "--cores", "8", "--parallel", "2",
            "--spec-deadline", "1.0",
        )
        assert proc.returncode == 2
        assert "--spec-deadline" in proc.stderr

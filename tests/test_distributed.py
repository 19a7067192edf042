"""Fault-injection and wire-path tests for the distributed sweep executor.

Every test here exercises real sockets: the worker plane binds an
ephemeral localhost port and the workers are genuine ``python -m repro
worker`` subprocesses (supervised, or launched by hand), so handshake,
leases, heartbeats, retry, exclusion, and drain all run over the actual
JSON-lines-over-TCP protocol.
"""

import json
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.experiments.fig7_tightloop import fig7_sweep
from repro.runner import (
    DistributedExecutor,
    ResultCache,
    Runner,
    RunSpec,
    SerialExecutor,
)
from repro.runner.distributed import parse_address
from repro.service import JobStore, ServiceBroker
from sweep_host import collect, serve, sweep_store, sweep_task

SRC = str(Path(__file__).resolve().parent.parent / "src")


def quick_fig7():
    return fig7_sweep(core_counts=[8, 16], iterations=2)


def tightloop_spec(num_cores=8):
    return RunSpec(
        workload="tightloop", params={"iterations": 2},
        config="WiSync", num_cores=num_cores,
    )


def fault_spec(**params):
    return RunSpec(workload="fault_probe", params=params, config="WiSync", num_cores=4)


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("sweephost:7787") == ("sweephost", 7787)

    def test_empty_host_means_localhost(self):
        assert parse_address(":7787") == ("127.0.0.1", 7787)

    def test_rejects_missing_port(self):
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            parse_address("sweephost")


class TestBroker:
    def test_fully_excluded_task_is_still_assignable(self):
        # Liveness: a task whose excluded set covers every connected worker
        # has nobody left to serve it; best-effort assignment beats wedging
        # the sweep forever while all workers poll "idle".
        store = sweep_store([tightloop_spec(4)])
        store.claim_worker("a")
        store.claim_worker("b")
        sweep_task(store).excluded = {"a", "b"}
        assert store.assign("a")["type"] == "task"

    def test_partially_excluded_task_waits_for_an_eligible_worker(self):
        store = sweep_store([tightloop_spec(4)])
        store.claim_worker("a")
        store.claim_worker("b")
        sweep_task(store).excluded = {"a"}
        assert store.assign("a")["type"] == "idle"
        assert store.assign("b")["type"] == "task"

    def test_broker_survives_malformed_messages(self):
        # A structurally invalid line (JSON array, missing fields, a foreign
        # task id) must not kill the handler thread — the same connection
        # must still complete a normal handshake and assignment afterwards.
        broker = serve(sweep_store([tightloop_spec(4)]))
        try:
            sock = socket.create_connection(("127.0.0.1", broker.port))
            reader = sock.makefile("r", encoding="utf-8")
            sock.sendall(
                b'[1, 2, 3]\n'
                b'{"type": "result"}\n'
                b'{"type": "hello", "worker": "probe"}\n'
            )
            assert json.loads(reader.readline())["type"] == "welcome"
            sock.sendall(
                b'[1, 2, 3]\n'
                b'{"type": "result"}\n'
                b'{"type": "heartbeat", "task": "abc"}\n'
                b'{"type": "result", "task": "sweep/0"}\n'
                b'{"type": "next"}\n'
            )
            assert json.loads(reader.readline())["type"] == "task"
            sock.close()
        finally:
            broker.close()

    def test_invalid_result_payload_requeues_instead_of_crashing(self):
        # A wrong-shape result dict (version-skewed worker) must be treated
        # as a worker error — requeue with exclusion — not crash the sweep
        # host's event loop after the task already went terminal.
        store = sweep_store([tightloop_spec(4)])
        broker = serve(store)
        try:
            sock = socket.create_connection(("127.0.0.1", broker.port))
            reader = sock.makefile("r", encoding="utf-8")
            sock.sendall(b'{"type": "hello", "worker": "skewed"}\n')
            assert json.loads(reader.readline())["type"] == "welcome"
            sock.sendall(b'{"type": "next"}\n')
            task = json.loads(reader.readline())
            assert task["type"] == "task"
            sock.sendall((json.dumps(
                {"type": "result", "task": task["task"], "result": {}}
            ) + "\n").encode())
            # The spec must be assignable again (best-effort fallback: we are
            # the only connected worker, even though we are now excluded).
            sock.sendall(b'{"type": "next"}\n')
            assert json.loads(reader.readline())["type"] == "task"
            sock.close()
        finally:
            broker.close()
        # Two requeues: the invalid payload, then the disconnect while
        # holding the re-assigned lease when the test closes its socket.
        assert store.stats["requeued"] == 2
        assert store.stats["completed"] == 0

    def test_worker_rejects_non_positive_heartbeat(self):
        from repro.runner.distributed import run_worker

        with pytest.raises(ConfigurationError, match="heartbeat"):
            run_worker("127.0.0.1", 1, heartbeat=0.0)
        with pytest.raises(ConfigurationError, match="heartbeat"):
            DistributedExecutor(workers=1, heartbeat=-1.0)

    def test_bind_conflict_raises_configuration_error(self):
        blocker = socket.create_server(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ConfigurationError, match="cannot bind"):
                ServiceBroker(JobStore(), port=port).start()
        finally:
            blocker.close()


class TestPromptTeardown:
    """Closing wakes every blocked thread instead of waiting out a timeout."""

    def _hello(self, port):
        sock = socket.create_connection(("127.0.0.1", port))
        reader = sock.makefile("r", encoding="utf-8")
        sock.sendall(b'{"type": "hello", "worker": "idle"}\n')
        assert json.loads(reader.readline())["type"] == "welcome"
        return sock, reader

    def test_close_with_an_idle_accept_thread_is_prompt(self):
        broker = serve(sweep_store([tightloop_spec(4)]))
        started = time.monotonic()
        broker.close()
        assert time.monotonic() - started < 0.5

    def test_close_with_a_connected_idle_worker_is_prompt(self):
        broker = serve(sweep_store([tightloop_spec(4)]))
        sock, reader = self._hello(broker.port)
        started = time.monotonic()
        broker.close()
        assert time.monotonic() - started < 0.5
        assert reader.readline() == ""  # the broker hung up on the worker
        sock.close()

    def test_port_is_free_again_right_after_close(self):
        broker = serve(sweep_store([tightloop_spec(4)]))
        port = broker.port
        broker.close()
        serve(sweep_store([tightloop_spec(4)]), port).close()

    def test_tcp_nodelay_on_both_ends_of_the_worker_wire(self):
        from repro.runner.distributed import _connect

        broker = serve(sweep_store([tightloop_spec(4)]))
        try:
            sock = _connect("127.0.0.1", broker.port)
            reader = sock.makefile("r", encoding="utf-8")
            sock.sendall(b'{"type": "hello", "worker": "probe"}\n')
            assert json.loads(reader.readline())["type"] == "welcome"
            [accepted] = list(broker._listener._live)
            for end in (sock, accepted):
                assert end.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            sock.close()
        finally:
            broker.close()


class TestQuickAxes:
    def test_quick_fills_unset_axes_only(self):
        from repro.experiments import experiment
        from repro.runner.cli import build_parser

        args = build_parser().parse_args(["run", "fig7", "--quick"])
        kwargs = experiment("fig7").sweep_kwargs(vars(args), quick=args.quick)
        assert kwargs == {"core_counts": [8, 16], "iterations": 2}

    def test_quick_respects_explicit_flags_even_at_default_values(self):
        # Regression: --quick used to clobber an explicit --iterations 5
        # because it could not tell it apart from the parser default.
        from repro.experiments import experiment
        from repro.runner.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig7", "--quick", "--iterations", "5", "--cores", "32"]
        )
        kwargs = experiment("fig7").sweep_kwargs(vars(args), quick=args.quick)
        assert kwargs == {"core_counts": [32], "iterations": 5}


class TestDistributedExecutor:
    def test_fig7_quick_bit_identical_to_serial(self):
        # The acceptance bar: a fig7 quick grid through two localhost
        # workers must reproduce the serial cycle counts bit-for-bit.
        sweep = quick_fig7()
        serial = SerialExecutor().run(sweep.specs)
        executor = DistributedExecutor(workers=2, lease_seconds=10.0)
        distributed = executor.run(sweep.specs)
        assert len(distributed) == len(serial) == len(sweep)
        for mine, theirs in zip(serial, distributed):
            assert mine.total_cycles == theirs.total_cycles
            assert mine.events_processed == theirs.events_processed
            assert mine.thread_cycles == theirs.thread_cycles
            assert mine.stats.to_dict() == theirs.stats.to_dict()
        assert executor.last_stats["completed"] == len(sweep)
        assert executor.last_stats["failed"] == 0

    def test_worker_killed_mid_spec_completes_via_retry(self):
        # One of the two workers dies (os._exit) the moment its first task
        # is assigned — i.e. while holding a lease.  The broker must detect
        # the dropped connection, requeue with the dead worker excluded, and
        # the surviving worker must finish the sweep bit-identically.  The
        # grid is long enough that the healthy worker cannot drain it all
        # before the doomed one has started and taken its first task.
        sweep = fig7_sweep(core_counts=[8, 16], iterations=30)
        serial = SerialExecutor().run(sweep.specs)
        executor = DistributedExecutor(
            workers=2, faults=["exit-on-task", None], lease_seconds=10.0
        )
        distributed = executor.run(sweep.specs)
        assert [r.total_cycles for r in distributed] == [r.total_cycles for r in serial]
        assert [r.events_processed for r in distributed] == [
            r.events_processed for r in serial
        ]
        assert executor.last_stats["disconnects"] >= 1
        assert executor.last_stats["requeued"] >= 1
        assert executor.last_stats["failed"] == 0

    def test_worker_exception_yields_successes_then_structured_error(self):
        specs = [tightloop_spec(8), fault_spec(mode="raise"), tightloop_spec(4)]
        executor = DistributedExecutor(workers=2, lease_seconds=10.0, max_attempts=2)
        received = {}
        with pytest.raises(ExecutionError) as excinfo:
            for position, result in executor.run_iter(specs):
                received[position] = result
        assert sorted(received) == [0, 2]
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0][0] == specs[1]
        assert "fault_probe" in failures[0][1]
        assert executor.last_stats["failed"] == 1
        assert executor.last_stats["completed"] == 2

    def test_flaky_spec_retries_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "flaky-marker")
        specs = [fault_spec(marker=marker), tightloop_spec(4)]
        executor = DistributedExecutor(workers=1, lease_seconds=10.0)
        results = executor.run(specs)
        assert len(results) == 2
        assert all(result.completed for result in results)
        assert executor.last_stats["requeued"] == 1
        assert executor.last_stats["failed"] == 0

    def test_sick_worker_does_not_burn_the_retry_budget(self):
        # One worker errors instantly on every task (broken environment).
        # Error reports exclude the reporter, so each spec costs at most one
        # wasted attempt and the healthy worker completes the whole sweep.
        sweep = fig7_sweep(core_counts=[8], iterations=2)
        executor = DistributedExecutor(
            workers=2, faults=["error-on-task", None], lease_seconds=10.0
        )
        results = executor.run(sweep.specs)
        assert len(results) == len(sweep)
        assert all(result.completed for result in results)
        assert executor.last_stats["failed"] == 0

    def test_all_workers_dead_aborts_instead_of_hanging(self):
        executor = DistributedExecutor(
            workers=1, faults=["exit-on-task"], lease_seconds=5.0
        )
        with pytest.raises(ExecutionError, match="worker"):
            executor.run([tightloop_spec(4)])
        assert executor.last_stats["failed"] == 1

    def test_heartbeats_keep_a_slow_spec_alive_past_its_lease(self):
        # The spec takes ~1s; the lease is 0.5s.  Without heartbeats the
        # lease would expire and the spec would be reassigned; with them the
        # sweep completes with zero expiries on the first assignment.
        slow = RunSpec(
            workload="tightloop", params={"iterations": 200},
            config="WiSync", num_cores=16,
        )
        executor = DistributedExecutor(workers=1, lease_seconds=0.5, heartbeat=0.1)
        results = executor.run([slow])
        assert results[0].completed
        assert executor.last_stats["expired"] == 0
        assert executor.last_stats["requeued"] == 0
        assert executor.last_stats["assigned"] == 1

    def test_empty_sweep_is_a_no_op(self):
        assert DistributedExecutor(workers=1).run([]) == []

    def test_rejects_negative_worker_count(self):
        with pytest.raises(ConfigurationError):
            DistributedExecutor(workers=-1)


class TestRunnerIntegration:
    def test_runner_cache_and_progress_compose_unchanged(self, tmp_path):
        # The executor honors the run_iter contract, so Runner-level caching
        # and SpecProgress streaming must work without special-casing.
        sweep = fig7_sweep(core_counts=[8], iterations=2)
        events = []
        runner = Runner(
            executor=DistributedExecutor(workers=2, lease_seconds=10.0),
            cache=ResultCache(tmp_path / "cache"),
            progress=events.append,
        )
        first = runner.run(sweep)
        assert (first.num_simulated, first.num_cached) == (len(sweep), 0)
        assert sorted(event.index for event in events) == list(range(len(sweep)))
        assert not any(event.cached for event in events)
        second = runner.run(sweep)
        assert (second.num_simulated, second.num_cached) == (0, len(sweep))
        for spec in sweep:
            assert (
                first.result_for(spec).total_cycles
                == second.result_for(spec).total_cycles
            )


class TestWireProtocol:
    def test_external_cli_worker_drains_a_broker(self):
        # The no-local-pool path: a worker plane plus a manually launched
        # `python -m repro worker --connect` subprocess, exactly what a
        # remote host would run.
        specs = [tightloop_spec(4), tightloop_spec(8)]
        store = sweep_store(specs)
        broker = serve(store)
        try:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", f"127.0.0.1:{broker.port}",
                    "--max-tasks", "2",
                ],
                env={"PYTHONPATH": SRC},
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            events = collect(store)
            _, stderr = proc.communicate(timeout=30)
        finally:
            broker.close()
        assert proc.returncode == 0, stderr
        assert "2 specs completed" in stderr
        assert sorted(events) == [0, 1]
        serial = SerialExecutor().run(specs)
        for position, payload in events.items():
            assert payload.total_cycles == serial[position].total_cycles

    def test_idle_external_workers_are_drained_before_the_plane_closes(self):
        # A finished --bind sweep answers its idle external workers `drain`
        # before it closes the worker plane; closing first would leave a
        # --redial worker redialing a dead port for its whole budget.
        import threading

        slow = RunSpec(
            workload="tightloop", params={"iterations": 200},
            config="WiSync", num_cores=16,
        )
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = DistributedExecutor(
            workers=0, port=port, lease_seconds=10.0,
            announce=lambda host, port: None,
        )
        sweep = threading.Thread(target=executor.run, args=([slow],))
        sweep.start()
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"127.0.0.1:{port}", "--redial", "30"],
                env={"PYTHONPATH": SRC},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for _ in range(2)
        ]
        sweep.join(timeout=60)
        assert not sweep.is_alive(), "sweep did not finish"
        assert executor.last_stats["completed"] == 1
        for worker in workers:
            assert worker.wait(timeout=5) == 0  # drained, not redialing

    def test_broker_death_mid_task_fails_the_worker(self):
        # Regression: a broker dying while the worker holds a task used to be
        # swallowed as a clean drain (exit 0) — and closing the broker didn't
        # even sever live connections (the handler's makefile() reader holds
        # an io-ref, so close() without shutdown() defers the real FD close).
        slow = RunSpec(
            workload="tightloop", params={"iterations": 600},
            config="WiSync", num_cores=16,
        )
        store = sweep_store([slow])
        broker = serve(store)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"127.0.0.1:{broker.port}",
                "--heartbeat", "0.1",
            ],
            env={"PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while store.stats["assigned"] == 0:
                assert time.monotonic() < deadline, "task never assigned"
                time.sleep(0.05)
            time.sleep(0.2)  # worker is now mid-spec (the spec takes ~3s)
        finally:
            broker.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2, stderr
        assert "connection to broker lost" in stderr

    def test_external_worker_keeps_sweep_alive_after_cluster_dies(self):
        # Combined --distributed N --bind mode: the dead-cluster watchdog
        # must not abort while a healthy external worker is still connected.
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        external = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"127.0.0.1:{port}",
            ],
            env={"PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        time.sleep(1.0)  # let the external worker reach its connect-retry loop
        specs = [tightloop_spec(4), tightloop_spec(8), tightloop_spec(16)]
        executor = DistributedExecutor(
            workers=1, port=port, faults=["exit-on-task"], lease_seconds=10.0
        )
        try:
            results = executor.run(specs)
        finally:
            external.wait(timeout=30)
        assert len(results) == 3
        assert all(result.completed for result in results)
        assert executor.last_stats["failed"] == 0
        # (whether the doomed local worker got a task before the external
        # worker drained the sweep is a race; the invariant under test is
        # that the sweep completed without the watchdog aborting it)

    def test_worker_rejects_unknown_fault(self):
        from repro.runner.distributed import run_worker

        with pytest.raises(ConfigurationError, match="unknown worker fault"):
            run_worker("127.0.0.1", 1, fault="set-fire-to-rack")

    def test_worker_against_non_json_peer_fails_cleanly(self):
        # Dialing something that is not a broker (wrong port, an SSH banner)
        # must produce a clean ExecutionError, not a JSONDecodeError trace.
        import threading

        from repro.runner.distributed import run_worker

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            conn.sendall(b"SSH-2.0-OpenSSH_9.6\r\n")
            time.sleep(0.5)
            conn.close()

        threading.Thread(target=serve, daemon=True).start()
        try:
            with pytest.raises(ExecutionError, match="JSON handshake"):
                run_worker("127.0.0.1", port)
        finally:
            server.close()

    def test_late_external_worker_rescues_a_dead_cluster_on_a_bound_port(self):
        # Combined mode with an explicit --bind: if every local worker dies
        # before any external worker joins, the sweep must keep waiting for
        # the advertised port's joiners, not abort.
        import threading

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = DistributedExecutor(
            workers=1, port=port, faults=["exit-on-task"], lease_seconds=10.0
        )
        box = {}

        def sweep():
            try:
                box["results"] = executor.run([tightloop_spec(4)])
            except Exception as error:  # noqa: BLE001 - surfaced via assert
                box["error"] = error

        thread = threading.Thread(target=sweep)
        thread.start()
        time.sleep(2.5)  # the doomed local worker has long since exited
        external = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"127.0.0.1:{port}",
            ],
            env={"PYTHONPATH": SRC},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        thread.join(timeout=60)
        external.wait(timeout=30)
        assert not thread.is_alive(), "sweep did not finish"
        assert "error" not in box, box.get("error")
        assert box["results"][0].completed

    def test_worker_fails_cleanly_on_wrong_shape_replies(self):
        # Valid JSON, wrong protocol shape (version skew, some other
        # JSON-lines service): ExecutionError, not a raw KeyError.
        import threading

        from repro.runner.distributed import run_worker

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            conn, _ = server.accept()
            reader = conn.makefile("r", encoding="utf-8")
            reader.readline()  # hello
            conn.sendall(b'{"type": "welcome", "lease_seconds": 5.0}\n')
            reader.readline()  # next
            conn.sendall(b'{"status": "ok"}\n')
            time.sleep(0.5)
            conn.close()

        threading.Thread(target=serve, daemon=True).start()
        try:
            with pytest.raises(ExecutionError, match="protocol error"):
                run_worker("127.0.0.1", port)
        finally:
            server.close()

    def test_worker_rejects_wrong_shape_welcome(self):
        # Valid JSON but not a welcome object (array, bad lease type): the
        # handshake must fail with ExecutionError, not a raw AttributeError.
        import threading

        from repro.runner.distributed import run_worker

        for banner in (b"[1, 2, 3]\n",
                       b'{"type": "welcome", "lease_seconds": "soon"}\n'):
            server = socket.create_server(("127.0.0.1", 0))
            port = server.getsockname()[1]

            def serve(sock=server, line=banner):
                conn, _ = sock.accept()
                conn.makefile("r", encoding="utf-8").readline()  # hello
                conn.sendall(line)
                time.sleep(0.5)
                conn.close()

            threading.Thread(target=serve, daemon=True).start()
            try:
                with pytest.raises(ExecutionError, match="handshake"):
                    run_worker("127.0.0.1", port)
            finally:
                server.close()

    def test_connect_host_resolves_wildcard_binds_to_loopback(self):
        from repro.runner.distributed import connect_host

        assert connect_host("0.0.0.0") == "127.0.0.1"
        assert connect_host("::") == "127.0.0.1"
        assert connect_host("sweephost") == "sweephost"

    def test_wildcard_bind_with_local_workers_completes(self):
        # Combined-mode regression: the local pool used to dial the wildcard
        # bind address verbatim, which is not a dialable host everywhere.
        executor = DistributedExecutor(
            workers=1, host="0.0.0.0", lease_seconds=10.0
        )
        results = executor.run([tightloop_spec(4)])
        assert len(results) == 1 and results[0].completed


class TestCli:
    def _repro(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env={"PYTHONPATH": SRC},
        )

    def test_run_fig7_quick_distributed_smoke(self):
        proc = self._repro(
            "run", "fig7", "--quick", "--distributed", "2",
            "--configs", "WiSync,Baseline", "--quiet",
        )
        assert proc.returncode == 0, proc.stderr
        # --quick: cores [8, 16] x 2 configs = 4 grid points
        assert "4 simulated, 0 cached" in proc.stderr
        assert "(distributed=2)" in proc.stderr

    def test_progress_and_drain_lines_are_written_whole(self, monkeypatch):
        # A local worker shares the sweep's stderr.  A line written in two
        # pieces (text, then newline) lets the other process's line land in
        # between, splitting a --progress line.
        import io
        import signal

        from repro.runner.cli import main

        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stderr", Recorder())
        assert main([
            "run", "fig7", "--cores", "8", "--iterations", "1",
            "--configs", "WiSync", "--progress", "--no-manifest",
        ]) == 0
        broker = ServiceBroker(JobStore(drain=True)).start()
        handler = signal.getsignal(signal.SIGTERM)
        try:
            assert main(["worker", "--connect", f"127.0.0.1:{broker.port}"]) == 0
        finally:
            signal.signal(signal.SIGTERM, handler)
            broker.close()
        lines = [text for text in writes if text.startswith(("[", "worker"))]
        assert len(lines) == 2
        assert all(text.endswith("\n") for text in lines)

    def test_parallel_and_distributed_are_mutually_exclusive(self):
        proc = self._repro(
            "run", "fig7", "--cores", "8", "--parallel", "2", "--distributed", "2"
        )
        assert proc.returncode == 2
        assert "mutually exclusive" in proc.stderr

    def test_distributed_smoke_matches_serial_json(self, tmp_path):
        serial_out = str(tmp_path / "serial.json")
        dist_out = str(tmp_path / "dist.json")
        serial = self._repro(
            "run", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync", "--json", serial_out, "--quiet",
        )
        assert serial.returncode == 0, serial.stderr
        distributed = self._repro(
            "run", "fig7", "--cores", "8", "--iterations", "2",
            "--configs", "WiSync", "--distributed", "2", "--json", dist_out, "--quiet",
        )
        assert distributed.returncode == 0, distributed.stderr
        assert json.loads(Path(serial_out).read_text()) == json.loads(
            Path(dist_out).read_text()
        )

"""Chaos drills: seeded fault schedules against the distributed sweep fabric.

PR 5/6 proved individual failure modes with hand-written kill drills; this
module turns those drills into a reusable, property-testable harness.  A
:class:`ChaosSchedule` is a seeded, reproducible list of :class:`KillEvent`s
("kill the broker at t₁", "kill worker k at t₂"); the drills execute the
schedule against a live sweep and assert the one invariant that matters —
**results bit-identical to a serial run** — because the simulator's
sha256-derived RNG streams make any divergence (lost task, double count,
stale checkpoint) show up as a cycle-count mismatch.

Two drills share the schedule format, and both recover a killed sweep host
the way ``repro run --resume`` does:

* :func:`run_embedded_drill` — the sweep as the one job of an in-process
  :class:`~repro.service.jobstore.JobStore` behind the worker plane,
  replaced by a fresh store on the same port after each broker kill, plus a
  :class:`~repro.runner.supervisor.WorkerSupervisor` of real worker
  subprocesses.  Fast enough for property tests to sweep many seeds.
* :func:`run_subprocess_drill` — the full ``repro chaos`` path: the sweep
  host is a real ``repro run --bind`` process that gets SIGKILL'd and
  relaunched with ``--resume``, workers are real ``repro worker --redial``
  processes under the same supervisor, and verification diffs the run's
  ``--json`` table against a serial baseline's.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExecutionError
from repro.machine.results import SimResult
from repro.runner.distributed import connect_host
from repro.runner.spec import RunSpec
from repro.runner.supervisor import WorkerSupervisor, repro_env

#: Recognized kill targets.
KILL_TARGETS = ("broker", "worker")

#: Both drills' worker respawn policy.  Drill kills are deliberate, not a
#: sick host: the breaker stays wide open so every scheduled kill gets its
#: respawn, after a short backoff.
_DRILL_RESPAWN: Dict[str, Any] = dict(
    max_rapid_failures=100, backoff_base=0.1, backoff_cap=1.0
)


@dataclass(frozen=True)
class KillEvent:
    """One scheduled fault: kill ``target`` ``at`` seconds into the sweep."""

    target: str  # "broker" | "worker"
    at: float    # seconds after sweep start
    index: int = 0  # which worker slot (ignored for broker kills)


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, reproducible fault schedule."""

    seed: int
    kills: Tuple[KillEvent, ...]

    def ordered(self) -> List[KillEvent]:
        return sorted(self.kills, key=lambda kill: kill.at)

    def describe(self) -> str:
        shown = ", ".join(
            f"{kill.target}"
            + (f"[{kill.index}]" if kill.target == "worker" else "")
            + f"@{kill.at:.2f}s"
            for kill in self.ordered()
        )
        return f"seed {self.seed}: {shown or 'no kills'}"

    @classmethod
    def generate(
        cls,
        seed: int,
        targets: Sequence[str] = KILL_TARGETS,
        window: Tuple[float, float] = (0.3, 3.0),
        workers: int = 2,
    ) -> "ChaosSchedule":
        """Derive a schedule from ``seed``: one kill per requested target.

        Same seed, same schedule — CI failures replay locally with the seed
        alone.  Kill times are uniform over ``window`` (seconds after sweep
        start) and worker kills pick a uniform slot.
        """
        for target in targets:
            if target not in KILL_TARGETS:
                raise ConfigurationError(
                    f"unknown chaos kill target {target!r}; "
                    f"choices: {list(KILL_TARGETS)}"
                )
        # Seeded host-side RNG for reproducible kill schedules; runner/ is
        # outside the sim-core packages, so DET001's path scope exempts it.
        rng = random.Random(seed)
        kills = tuple(
            KillEvent(
                target=target,
                at=rng.uniform(*window),
                index=rng.randrange(workers) if workers > 0 else 0,
            )
            for target in targets
        )
        return cls(seed=seed, kills=kills)


def results_identical(mine: SimResult, theirs: SimResult) -> bool:
    """The bit-identical-to-serial check on the deterministic result fields.

    Wall-clock extras (``wall_seconds``) legitimately differ between runs;
    every simulated quantity — cycles, events, completion, per-machine
    stats — must not.
    """
    return (
        mine.total_cycles == theirs.total_cycles
        and mine.events_processed == theirs.events_processed
        and mine.completed == theirs.completed
        and mine.stats.to_dict() == theirs.stats.to_dict()
    )


# ---------------------------------------------------------------------------
# Embedded drill: an in-process store, supervised worker subprocesses
# ---------------------------------------------------------------------------
@dataclass
class DrillReport:
    """What a drill did and saw; the caller asserts on it."""

    schedule: ChaosSchedule
    results: Dict[int, SimResult]
    failed: Dict[int, str]
    broker_restarts: int = 0
    worker_kills: int = 0

    def all_completed(self, total: int) -> bool:
        return not self.failed and len(self.results) == total


def run_embedded_drill(
    specs: Sequence[RunSpec],
    schedule: ChaosSchedule,
    checkpoint_dir: Union[str, Path],
    pool: int = 2,
    lease_seconds: float = 10.0,
    checkpoint_every: Optional[int] = None,
    redial: float = 30.0,
    timeout: float = 180.0,
) -> DrillReport:
    """Execute ``schedule`` against an in-process sweep fabric.

    A broker kill shuts the live store down, then closes its worker plane:
    the sockets drop exactly as a SIGKILL's would, and a store that is shut
    down charges no attempt for them.  A fresh store on the *same* port then
    runs the grid points that have no result yet, adopting their checkpoint
    files from ``checkpoint_dir`` — the way ``repro run --resume`` recovers a
    killed sweep host.  Worker kills SIGKILL a supervised worker subprocess
    — the supervisor respawns it.  The caller compares the collected results
    against serial with :func:`results_identical`.
    """
    from repro.service import JobStore, ServiceBroker

    report = DrillReport(schedule=schedule, results={}, failed={})
    lock = threading.Lock()

    def open_fabric(port: int) -> Tuple[Any, Any, str, threading.Thread]:
        positions = [i for i in range(len(specs)) if i not in report.results]
        store = JobStore(
            lease_seconds=lease_seconds,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=str(checkpoint_dir),
            drain=True,
        )
        job = store.submit_sweep([specs[i] for i in positions])
        broker = ServiceBroker(store, "127.0.0.1", port).start()

        def pump() -> None:
            # Runs until the job finishes or the store is shut down (killed).
            landed, settled = 0, False
            while not settled:
                runs, settled = store.wait_for_landed(job, landed, 1.0)
                landed += len(runs)
                with lock:
                    for index, result in runs:
                        report.results[positions[index]] = result
                        report.failed.pop(positions[index], None)
            with lock:
                for index, reason, _ in store.job_failures(job):
                    report.failed[positions[index]] = reason

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        return store, broker, job, thread

    def kill_fabric() -> None:
        store.shutdown()
        broker.close()
        pump.join(timeout=5.0)

    store, broker, job, pump = open_fabric(0)
    port = broker.port
    supervisor = WorkerSupervisor(
        connect_host(broker.host), port, pool,
        heartbeat=min(0.5, lease_seconds / 4.0), redial=redial,
        **_DRILL_RESPAWN,
    )
    started = time.monotonic()
    try:
        for kill in schedule.ordered():
            while time.monotonic() - started < kill.at and pump.is_alive():
                time.sleep(0.02)
            if not pump.is_alive():
                break  # sweep finished before this kill; remaining are no-ops
            if kill.target == "broker":
                kill_fabric()
                report.broker_restarts += 1
                if len(report.results) == len(specs):
                    break  # the last result landed during the kill
                store, broker, job, pump = open_fabric(port)
            else:
                supervisor.kill(kill.index % pool)
                report.worker_kills += 1
        pump.join(timeout=max(0.0, started + timeout - time.monotonic()))
        if pump.is_alive():
            raise ExecutionError(
                f"chaos drill timed out after {timeout}s "
                f"({schedule.describe()}; "
                f"{len(report.results)}/{len(specs)} completed)"
            )
    finally:
        supervisor.close()
        kill_fabric()
    return report


def verify_against_serial(
    specs: Sequence[RunSpec], report: DrillReport
) -> List[str]:
    """Run the grid serially and name every divergence (empty = identical)."""
    from repro.runner.executor import SerialExecutor

    baseline = SerialExecutor().run(specs)
    problems: List[str] = []
    for position, reason in sorted(report.failed.items()):
        problems.append(f"[{specs[position].label()}] failed: {reason}")
    for position, expected in enumerate(baseline):
        got = report.results.get(position)
        if got is None:
            if position not in report.failed:
                problems.append(f"[{specs[position].label()}] never completed")
            continue
        if not results_identical(got, expected):
            problems.append(
                f"[{specs[position].label()}] diverged from serial: "
                f"cycles {got.total_cycles} != {expected.total_cycles} or "
                f"events/stats mismatch"
            )
    return problems


# ---------------------------------------------------------------------------
# Subprocess drill: real SIGKILLs against a real `repro run --bind`
# ---------------------------------------------------------------------------
def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run_subprocess_drill(
    experiment: str = "fig7",
    seed: int = 0,
    kills: Sequence[str] = KILL_TARGETS,
    workers: int = 2,
    work_dir: Union[str, Path, None] = None,
    timeout: float = 600.0,
    echo: Any = None,
) -> int:
    """The ``repro chaos`` drill: SIGKILL real processes, diff real output.

    1. Serial baseline: ``repro run <experiment> --quick --json`` in a
       subprocess (no manifest, no broker).
    2. Chaos run: ``repro run --quick --distributed 0 --bind`` sweep host
       plus a :class:`WorkerSupervisor` of ``workers`` redialing worker
       subprocesses.
    3. Execute the seeded schedule: broker kills SIGKILL the sweep host and
       relaunch it with ``--resume <run-id> --bind <same port>``; worker
       kills SIGKILL one worker, which the supervisor respawns.
    4. Verify the chaos run's ``--json`` table is byte-identical to the
       serial baseline's.

    Returns a process exit code (0 = identical).  ``echo`` is a print-like
    callable for progress lines (default: stderr).
    """
    def say(message: str) -> None:
        if echo is not None:
            echo(message)
        else:
            print(f"chaos: {message}", file=sys.stderr, flush=True)

    import tempfile

    with tempfile.TemporaryDirectory(
        prefix="repro-chaos-", dir=str(work_dir) if work_dir else None
    ) as scratch:
        scratch_path = Path(scratch)
        env = repro_env()
        schedule = ChaosSchedule.generate(
            seed, targets=kills, window=(0.5, 4.0), workers=workers
        )
        say(schedule.describe())

        baseline_json = scratch_path / "baseline.json"
        baseline = subprocess.run(
            [sys.executable, "-m", "repro", "run", experiment, "--quick",
             "--no-manifest", "--quiet", "--json", str(baseline_json)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
        if baseline.returncode != 0:
            say(f"serial baseline failed:\n{baseline.stderr}")
            return 1
        say("serial baseline recorded")

        port = _free_port()
        runs_dir = scratch_path / "runs"
        run_id = f"chaos-{seed}"
        chaos_json = scratch_path / "chaos.json"
        host_command = [
            sys.executable, "-m", "repro", "run", experiment, "--quick",
            "--distributed", "0", "--bind", f"127.0.0.1:{port}",
            "--run-id", run_id, "--runs-dir", str(runs_dir),
            "--quiet", "--json", str(chaos_json),
        ]
        resume_command = [
            sys.executable, "-m", "repro", "run",
            "--resume", run_id, "--runs-dir", str(runs_dir),
            "--distributed", "0", "--bind", f"127.0.0.1:{port}",
            "--quiet", "--json", str(chaos_json),
        ]
        # Workers first: a bad pool size fails before the host exists, and
        # each worker's first dial waits out the host's startup.
        supervisor = WorkerSupervisor(
            "127.0.0.1", port, workers, heartbeat=0.2, redial=30.0,
            **_DRILL_RESPAWN,
        )
        host = subprocess.Popen(
            host_command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + timeout
        # The fault clock starts when the broker is actually up: a SIGKILL
        # during interpreter startup would land before the manifest even
        # exists, leaving nothing to --resume.
        import socket as socket_module

        while time.monotonic() < deadline and host.poll() is None:
            try:
                socket_module.create_connection(
                    ("127.0.0.1", port), timeout=0.2
                ).close()
                break
            except OSError:
                time.sleep(0.1)
        started = time.monotonic()
        try:
            for kill in schedule.ordered():
                while (
                    time.monotonic() - started < kill.at
                    and host.poll() is None
                ):
                    time.sleep(0.05)
                if host.poll() is not None:
                    break  # sweep already finished; later kills are no-ops
                if kill.target == "broker":
                    host.send_signal(signal.SIGKILL)
                    host.wait()
                    say(f"SIGKILL'd sweep host at t={kill.at:.2f}s; "
                        f"relaunching with --resume {run_id}")
                    host = subprocess.Popen(
                        resume_command, env=env,
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    )
                else:
                    victim = kill.index % workers
                    supervisor.kill(victim)
                    say(f"SIGKILL'd worker {victim} at t={kill.at:.2f}s; "
                        f"spawning replacement")
            while host.poll() is None:
                if time.monotonic() > deadline:
                    host.kill()
                    say(f"chaos run timed out after {timeout}s")
                    return 1
                time.sleep(0.1)
            if host.returncode != 0:
                say(f"chaos sweep host exited {host.returncode}")
                return 1
        finally:
            if host.poll() is None:
                host.kill()
            supervisor.close()
        try:
            expected = json.loads(baseline_json.read_text(encoding="utf-8"))
            got = json.loads(chaos_json.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            say(f"could not read drill output: {error}")
            return 1
        if got != expected:
            say("FAIL: chaos-run results diverged from the serial baseline")
            return 1
        say("OK: chaos-run results bit-identical to the serial baseline")
        return 0

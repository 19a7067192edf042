"""The ``host_paths`` workload: ``python -m repro run`` on four execution paths.

Each pass runs the same small CLI grid (``fig7 --quick``, 8 grid points)
with ``--progress`` on four paths, one after another:

* ``serial``      -- the default in-process executor;
* ``distributed`` -- ``--distributed 1``: a broker plus one local worker;
* ``submit``      -- ``--submit`` to a ``repro serve`` daemon with one worker,
  both started during set-up on ephemeral ports;
* ``cache_warm``  -- ``--cache`` on a cache filled during set-up.

Every child runs in its own process group under a timeout.  A path that
hangs or exits non-zero counts its grid points as failed; it never hangs
the benchmark, and every child is killed and reaped before the run ends.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import grids
import metrics
import simbench

#: Seconds one CLI invocation may take before it is killed and counted failed.
INVOCATION_TIMEOUT_S = 60.0

#: Seconds to wait for the daemon's addresses or its worker's registration.
READY_TIMEOUT_S = 30.0

#: Daemon start-ups per run; ``setup_s`` is the median set-up trial.
SETUP_TRIALS = 5

PATHS = ("serial", "distributed", "submit", "cache_warm")

#: Per-layer metric prefix of each path (``service`` owns ``--submit``).
PATH_PREFIX = {
    "serial": "runner.serial",
    "distributed": "runner.distributed",
    "submit": "service.submit",
    "cache_warm": "runner.cache_warm",
}

PROGRESS = re.compile(r"^\[\s*\d+/\d+\] (?P<label>.+): (?P<cycles>\d+) cycles \((?P<source>simulated|cached)\)$")
SUMMARY = re.compile(r"^\w+: (?P<simulated>\d+) simulated, (?P<cached>\d+) cached")


class Invocation:
    """One finished (or killed) child process and what it printed."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.returncode: Optional[int] = None
        self.timed_out = False
        self.wall_s = 0.0
        self.stdout = ""
        #: (seconds since launch, line) for every stderr line, as it arrived.
        self.stderr: List[Tuple[float, str]] = []
        self.maxrss_kb = 0

    def progress(self) -> List[Tuple[float, str, int, str]]:
        """(seconds since launch, label, cycles, source) per ``--progress`` line."""
        found = []
        for stamp, line in self.stderr:
            match = PROGRESS.match(line)
            if match:
                found.append(
                    (stamp, match["label"], int(match["cycles"]), match["source"])
                )
        return found

    def summary(self) -> Optional[Tuple[int, int]]:
        """(simulated, cached) from the CLI's closing summary line."""
        for _, line in self.stderr:
            match = SUMMARY.match(line)
            if match:
                return int(match["simulated"]), int(match["cached"])
        return None


class Children:
    """Every process the workload starts; :meth:`close` kills and reaps them."""

    def __init__(self) -> None:
        self._procs: List[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float) -> Tuple[int, int]:
        """Wait for ``proc`` (killing its group after ``timeout``).

        Returns (exit code, peak RSS in KB of the process and its reaped
        children).  ``os.wait4`` is used instead of ``Popen.wait`` because
        it also reports the child's resource usage.
        """
        if proc.returncode is not None:  # already reaped by Popen.poll()
            return proc.returncode, 0
        timer = threading.Timer(timeout, kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def stop(self, proc: subprocess.Popen, grace: float = 10.0) -> int:
        """SIGTERM ``proc``, then SIGKILL its group after ``grace``; peak RSS KB."""
        if proc.returncode is not None:
            return 0
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        return self.reap(proc, grace)[1]

    def close(self) -> None:
        for proc in self._procs:
            if proc.returncode is None:
                kill_group(proc)
                self.reap(proc, READY_TIMEOUT_S)
            for stream in (proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._procs.clear()


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every child: the checkout's sources, no REPRO_* knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def invoke(
    children: Children, path: str, argv: Sequence[str], cwd: Path, env: Dict[str, str],
    timeout: float = INVOCATION_TIMEOUT_S,
) -> Invocation:
    """Run one CLI invocation, timestamping each stderr line as it arrives."""
    run = Invocation(path)
    launched = time.perf_counter()
    proc = children.spawn(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    chunks: List[str] = []

    def read_stderr() -> None:
        for line in proc.stderr:
            run.stderr.append((time.perf_counter() - launched, line.rstrip("\n")))

    readers = [
        threading.Thread(target=read_stderr, daemon=True),
        threading.Thread(target=lambda: chunks.append(proc.stdout.read()), daemon=True),
    ]
    for reader in readers:
        reader.start()
    deadline = threading.Timer(timeout, _expire, (run, proc))
    deadline.start()
    try:
        run.returncode, run.maxrss_kb = children.reap(proc, timeout + READY_TIMEOUT_S)
    finally:
        deadline.cancel()
    run.wall_s = time.perf_counter() - launched
    kill_group(proc)  # any stray grandchild still holding the pipes open
    for reader in readers:
        reader.join(READY_TIMEOUT_S)
    run.stdout = "".join(chunks)
    return run


def _expire(run: Invocation, proc: subprocess.Popen) -> None:
    run.timed_out = True
    kill_group(proc)


class Service:
    """A ``repro serve`` daemon plus one ``repro worker``, on ephemeral ports."""

    def __init__(self, children: Children, workdir: Path, env: Dict[str, str], name: str) -> None:
        self.children = children
        log = workdir / f"{name}-daemon.log"
        self._log = open(log, "w", encoding="utf-8")
        self.daemon = children.spawn(
            [sys.executable, "-m", "repro", "serve"], cwd=workdir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
        )
        deadline = time.perf_counter() + READY_TIMEOUT_S
        worker_plane = http = None
        while worker_plane is None or http is None:
            if time.perf_counter() > deadline or self.daemon.poll() is not None:
                raise RuntimeError(f"repro serve did not report its addresses (see {log})")
            text = log.read_text(encoding="utf-8")
            match = re.search(r"worker plane on (\S+:\d+)", text)
            worker_plane = match.group(1) if match else None
            match = re.search(r"http api on (\S+)", text)
            http = match.group(1) if match else None
            time.sleep(0.005)
        self.url = http
        self.worker = children.spawn(
            [sys.executable, "-m", "repro", "worker", "--connect", worker_plane,
             "--redial", "3600"],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        while self._workers() < 1:
            if time.perf_counter() > deadline or self.worker.poll() is not None:
                raise RuntimeError("the repro worker did not register with the daemon")
            time.sleep(0.005)

    def _workers(self) -> int:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=READY_TIMEOUT_S) as reply:
            return int(json.load(reply)["workers"])

    def stop(self, graceful: bool) -> int:
        """Stop worker then daemon; returns the worker's peak RSS in KB.

        Set-up trials are killed outright: they ran no job and hold no
        journal, and the daemon's graceful shutdown takes seconds.
        """
        if graceful:
            worker_rss = self.children.stop(self.worker)
            self.children.stop(self.daemon)
        else:
            kill_group(self.worker)
            kill_group(self.daemon)
            worker_rss = self.children.reap(self.worker, READY_TIMEOUT_S)[1]
            self.children.reap(self.daemon, READY_TIMEOUT_S)
        self._log.close()
        return worker_rss


def load_expected(root: Path) -> Dict:
    return json.loads(simbench.expected_path(root, grids.HOST_WORKLOAD).read_text(encoding="utf-8"))


class HostPaths:
    """Set-up, passes and teardown of one ``host_paths`` run."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.workdir = root / ".perfbench-work" / f"host-{os.getpid()}"
        self.env = child_env(root)
        self.children = Children()
        self.service: Optional[Service] = None
        self.expected = load_expected(root)
        self.runs: Dict[str, List[Invocation]] = {path: [] for path in PATHS}
        self.failed_points = 0
        self.attempted_points = 0
        self.failures: List[str] = []
        self.peak_rss_kb = 0
        self.sim_s = 0.0

    def argv(self, path: str) -> List[str]:
        argv = [
            sys.executable, "-m", "repro", "run", grids.HOST_EXPERIMENT, "--quick",
            "--progress", "--configs", ",".join(grids.host_configs(self.seed)),
        ]
        if path == "distributed":
            argv += ["--distributed", "1"]
        elif path == "submit":
            argv += ["--submit", self.service.url]
        elif path == "cache_warm":
            argv += ["--cache", str(self.workdir / "cache")]
        return argv

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "HostPaths":
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.service is not None:
                self.peak_rss_kb = max(self.peak_rss_kb, self.service.stop(graceful=True))
        finally:
            self.children.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
            parent = self.workdir.parent
            if parent.is_dir() and not any(parent.iterdir()):
                parent.rmdir()

    def set_up(self, trials: int = SETUP_TRIALS) -> float:
        """Start the daemon and worker ``trials`` times (keeping the last) and
        fill the warm cache; returns the median set-up trial in seconds.

        A trial is a cold start (fresh interpreter, import, first machine)
        plus the daemon and its worker becoming ready.
        """
        first = grids.host_grid(self.seed)[0]
        spans = []
        for trial in range(trials):
            cold = simbench.cold_start_s(self.root, first)
            started = time.perf_counter()
            try:
                service = Service(self.children, self.workdir, self.env, f"trial{trial}")
            except (OSError, RuntimeError, ValueError) as error:
                self.failures.append(f"service set-up: {error}")
                break
            spans.append(cold + time.perf_counter() - started)
            if trial < trials - 1:
                service.stop(graceful=False)
            else:
                self.service = service
        warm = invoke(self.children, "serial", self.argv("cache_warm"), self.workdir, self.env)
        self.check(warm, expect_cached=False)
        self.sim_s = metrics.median(
            simbench.run_pass(grids.host_grid(self.seed), {}).seconds for _ in range(3)
        )
        return metrics.median(spans) if spans else 0.0

    def run_pass(self) -> float:
        """Run every path once; returns the pass's summed wall time."""
        total = 0.0
        for path in PATHS:
            if path == "submit" and self.service is None:
                points = len(self.expected["cycles"])
                self.attempted_points += points
                self.failed_points += points
                continue
            run = invoke(self.children, path, self.argv(path), self.workdir, self.env)
            self.check(run, expect_cached=path == "cache_warm")
            self.runs[path].append(run)
            total += run.wall_s
        return total

    # ----------------------------------------------------------------- check
    def check(self, run: Invocation, expect_cached: bool) -> None:
        """Count ``run``'s failed grid points against the committed outputs."""
        expected_cycles: Dict[str, int] = self.expected["cycles"]
        self.attempted_points += len(expected_cycles)
        self.peak_rss_kb = max(self.peak_rss_kb, run.maxrss_kb)
        problem = ""
        if run.timed_out:
            problem = f"timed out after {INVOCATION_TIMEOUT_S:.0f}s"
        elif run.returncode != 0:
            tail = run.stderr[-1][1] if run.stderr else ""
            problem = f"exit code {run.returncode}: {tail}"
        elif run.stdout != self.expected["table"]:
            problem = "printed table differs from the serial path's"
        if problem:
            self.failed_points += len(expected_cycles)
            self.failures.append(f"{run.path}: {problem}")
            return
        source = "cached" if expect_cached else "simulated"
        seen = {label: (cycles, src) for _, label, cycles, src in run.progress()}
        for label, cycles in expected_cycles.items():
            if seen.get(label) != (cycles, source):
                self.failed_points += 1
                self.failures.append(f"{run.path}: [{label}] got {seen.get(label)}")

    # --------------------------------------------------------------- metrics
    def samples(self) -> List[float]:
        """Launch-to-progress-line seconds of every grid point, every path."""
        return [
            stamp
            for runs in self.runs.values()
            for run in runs
            for stamp, *_ in run.progress()
        ]

    def path_metrics(self) -> Dict[str, float]:
        """wall/first-result/teardown/overhead medians per path, plus hit ratio."""
        found: Dict[str, float] = {}
        for path, runs in self.runs.items():
            done = [run for run in runs if run.progress()]
            prefix = PATH_PREFIX[path]
            wall = metrics.median(run.wall_s for run in runs) if runs else 0.0
            found[f"{prefix}.wall_s"] = wall
            found[f"{prefix}.first_result_s"] = metrics.median(
                run.progress()[0][0] for run in done
            ) if done else 0.0
            found[f"{prefix}.teardown_s"] = metrics.median(
                run.wall_s - run.progress()[-1][0] for run in done
            ) if done else 0.0
            found[f"{prefix}.overhead_s"] = wall - self.sim_s if runs else 0.0
        hits = [run.summary() for run in self.runs["cache_warm"]]
        hits = [cached / (simulated + cached) for simulated, cached in filter(None, hits)]
        found["runner.cache_warm.hit_ratio"] = metrics.median(hits) if hits else 0.0
        return found


def write_expected(root: Path) -> Path:
    """Record the serial path's table and per-point cycles."""
    workdir = root / ".perfbench-work" / f"expected-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    children = Children()
    try:
        argv = [
            sys.executable, "-m", "repro", "run", grids.HOST_EXPERIMENT, "--quick",
            "--progress", "--no-manifest",
        ]
        run = invoke(children, "serial", argv, workdir, child_env(root))
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode != 0 or len(run.progress()) != len(grids.host_grid(grids.DEFAULT_SEED)):
        raise RuntimeError(f"serial fig7 --quick failed: {run.stderr[-3:]}")
    payload = {
        "command": "repro run fig7 --quick --progress",
        "table": run.stdout,
        "cycles": {label: cycles for _, label, cycles, _ in run.progress()},
    }
    path = simbench.expected_path(root, grids.HOST_WORKLOAD)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def measure(root: Path, seed: int, seconds: float, trace: bool) -> simbench.Report:
    """End-to-end metrics (``trace=False``) or per-layer metrics (``trace=True``)."""
    report = simbench.Report()
    with HostPaths(root, seed) as bench:
        setup = bench.set_up()
        budget = seconds / 2 if trace else seconds
        walls: List[float] = []
        started = time.perf_counter()
        while len(walls) < grids.MIN_PASSES or (
            time.perf_counter() - started + metrics.median(walls) <= budget
        ):
            walls.append(bench.run_pass())
    # The daemon's worker is reaped on exit, so peak RSS is read after it.
    report.attempted = bench.attempted_points
    report.failed = bench.failed_points
    report.failures = bench.failures
    if trace:
        report.metrics.update(bench.path_metrics())
        layer_report = simbench.measure_layers(grids.host_grid(seed), seconds / 4, {})
        report.metrics.update(layer_report.metrics)
        report.attempted += layer_report.attempted
        report.failed += layer_report.failed
        report.failures += layer_report.failures
        report.notes += [f"in-process {note}" for note in layer_report.notes]
    else:
        samples = bench.samples()
        percentile = metrics.tail_percentile(
            grids.MIN_PASSES * len(PATHS) * len(bench.expected["cycles"])
        )
        p50, tail, beyond = metrics.timing_summary(samples, percentile)
        report.metrics.update(
            sweep_s=sum(
                metrics.median(run.wall_s for run in runs) for runs in bench.runs.values() if runs
            ),
            spec_p50_s=p50,
            spec_tail_s=tail,
            setup_s=setup,
            peak_rss_mb=metrics.peak_rss_mb(bench.peak_rss_kb),
        )
        report.notes.append(
            f"{len(walls)} passes x {len(PATHS)} paths x {len(bench.expected['cycles'])} "
            f"grid points; spec_tail_s is p{percentile} of {len(samples)} samples "
            f"({beyond} beyond it)"
        )
    for path in PATHS:
        walls_s = ", ".join(f"{run.wall_s:.3f}" for run in bench.runs[path])
        report.notes.append(f"{path:<11} wall s per pass: {walls_s}")
    serial = bench.runs["serial"][0]
    observed = {"table": serial.stdout, "cycles": {p[1]: p[2] for p in serial.progress()}}
    report.notes.append(f"CLI output digest: {metrics.outputs_digest(observed)}")
    return report

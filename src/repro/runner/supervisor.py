"""Worker supervisor: a self-healing pool of ``repro worker`` processes.

:class:`WorkerSupervisor` runs the sweep fabric's local workers and babysits
them: each slot that exits *abnormally* (nonzero status or a signal) is
respawned with jittered exponential backoff, while a slot that drains
cleanly (exit 0: the sweep finished, or a SIGTERM'd worker released its
lease) is left retired — and so is any slot that fails after a sibling
drained, since the sweep it served is over.  A circuit breaker stops the
respawn loop for any slot that keeps dying *rapidly* — N consecutive
failures within seconds of spawning mean the host (or its environment) is
sick, and blindly respawning would only burn the sweep's per-spec attempt
budgets — so a sick pool parks itself instead of flapping.

``repro workers --connect HOST:PORT --pool N`` runs the supervisor in the
foreground; :class:`~repro.runner.distributed.DistributedExecutor` embeds it
for ``--distributed N`` sweeps.  :func:`repro_env` is the one environment
builder for every ``python -m repro`` child the fabric and its drills spawn.

The jittered-backoff schedule (:func:`backoff_delays`) is shared with the
worker's broker dial/redial loops: a respawned fleet and a restarted broker
meet each other with randomized pacing instead of a thundering herd.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

#: Consecutive rapid failures of one slot before its breaker opens.
DEFAULT_MAX_RAPID_FAILURES = 3
#: An exit within this many seconds of spawning counts as a *rapid* failure.
DEFAULT_RAPID_SECONDS = 5.0
#: First respawn delay; doubles per consecutive rapid failure.
DEFAULT_BACKOFF_BASE = 0.25
#: Ceiling on any single respawn delay.
DEFAULT_BACKOFF_CAP = 5.0


def backoff_delays(
    base: float,
    cap: float,
    rng: Optional[random.Random] = None,
) -> "_BackoffIterator":
    """Infinite jittered exponential backoff: ``base * 2^n``, capped, with
    each delay multiplied by a uniform factor in ``[0.5, 1.5)``.

    The jitter is the point: N workers (or N respawns) retrying the same
    broker must not fire in lockstep, or every retry round is a thundering
    herd against a service that may be mid-restart.
    """
    # Unseeded host-side jitter is deliberate (distinct workers must not
    # retry in lockstep); runner/ is outside the sim-core packages, so
    # DET001's path scope exempts it.
    return _BackoffIterator(base, cap, rng or random.Random())


class _BackoffIterator:
    def __init__(self, base: float, cap: float, rng: random.Random) -> None:
        if base <= 0 or cap <= 0:
            raise ConfigurationError("backoff base and cap must be positive")
        self._delay = min(base, cap)
        self._cap = cap
        self._rng = rng

    def __iter__(self) -> "_BackoffIterator":
        return self

    def __next__(self) -> float:
        delay = self._delay * self._rng.uniform(0.5, 1.5)
        self._delay = min(self._delay * 2.0, self._cap)
        return delay


def _worker_command(
    host: str,
    port: int,
    heartbeat: Optional[float],
    redial: Optional[float],
    checkpoint_every: Optional[int],
    token: Optional[str] = None,
) -> List[str]:
    command = [sys.executable, "-m", "repro", "worker",
               "--connect", f"{host}:{port}"]
    if heartbeat is not None:
        command += ["--heartbeat", str(heartbeat)]
    if redial is not None:
        command += ["--redial", str(redial)]
    if checkpoint_every is not None:
        command += ["--checkpoint-every", str(checkpoint_every)]
    if token is not None:
        command += ["--token", token]
    return command


def repro_env(fault: Optional[str] = None) -> Dict[str, str]:
    """Environment for a ``python -m repro`` child: these sources first on
    ``PYTHONPATH``, and the worker fault-injection variable set to ``fault``
    (or cleared, so a drill's own fault never leaks into its children)."""
    from repro.runner.distributed import FAULT_ENV

    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    if fault:
        env[FAULT_ENV] = fault
    elif FAULT_ENV in env:
        del env[FAULT_ENV]
    return env


class _Slot:
    """One supervised worker position: its process plus respawn bookkeeping."""

    __slots__ = ("index", "fault", "proc", "spawned_at", "rapid_failures",
                 "respawn_at", "backoff", "drained", "sick", "abandoned")

    def __init__(self, index: int, fault: Optional[str]) -> None:
        self.index = index
        self.fault = fault
        self.proc: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0
        self.rapid_failures = 0
        self.respawn_at: Optional[float] = None
        self.backoff: Optional[Any] = None
        self.drained = False      # exited 0: normal end of service
        self.sick = False         # circuit breaker open: respawns stopped
        self.abandoned = False    # fault-injected slot we never respawn

    def terminal(self) -> bool:
        return self.drained or self.sick or self.abandoned

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class WorkerSupervisor:
    """Spawn and babysit ``pool`` worker subprocesses against one broker.

    ``alive_count`` / ``kill`` / ``close`` (and the context manager) drive
    the pool; ``respawns`` counts recoveries, ``sick()`` reports tripped
    breakers, and ``gave_up()`` is True once no worker is alive and none
    will ever be respawned — the signal the executor's dead-cluster
    watchdog keys on.

    ``faults`` injects per-slot :data:`~repro.runner.distributed.FAULT_ENV`
    modes; faulted slots are *not* respawned unless ``respawn_faulted`` is
    set (tests want a dead worker to stay dead — the ``repro workers
    --fault`` drill wants the breaker to trip).
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool: int,
        faults: Optional[Sequence[Optional[str]]] = None,
        heartbeat: Optional[float] = None,
        redial: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        token: Optional[str] = None,
        max_rapid_failures: int = DEFAULT_MAX_RAPID_FAILURES,
        rapid_seconds: float = DEFAULT_RAPID_SECONDS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        respawn_faulted: bool = False,
        on_event: Optional[Callable[[str], None]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if pool < 1:
            raise ConfigurationError("WorkerSupervisor needs at least one worker")
        if max_rapid_failures < 1:
            raise ConfigurationError("max_rapid_failures must be at least 1")
        self.host = host
        self.port = port
        self.heartbeat = heartbeat
        self.redial = redial
        self.checkpoint_every = checkpoint_every
        self.token = token
        self.max_rapid_failures = max_rapid_failures
        self.rapid_seconds = rapid_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.respawn_faulted = respawn_faulted
        self.on_event = on_event
        self.respawns = 0
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._slots = [
            _Slot(i, faults[i] if faults and i < len(faults) else None)
            for i in range(pool)
        ]
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()

    # ------------------------------------------------------------- spawning
    def _spawn(self, slot: _Slot) -> None:
        command = _worker_command(
            self.host, self.port, self.heartbeat, self.redial,
            self.checkpoint_every, self.token,
        )
        slot.proc = subprocess.Popen(
            command, env=repro_env(slot.fault), stdout=subprocess.DEVNULL
        )
        slot.spawned_at = time.monotonic()
        slot.respawn_at = None

    def _emit(self, message: str) -> None:
        if self.on_event is not None:
            try:
                self.on_event(message)
            except Exception:  # noqa: BLE001 - observers must not kill the pool
                pass

    def _monitor_loop(self) -> None:
        while not self._closed.wait(0.1):
            with self._lock:
                for slot in self._slots:
                    self._tend_locked(slot)

    def _tend_locked(self, slot: _Slot) -> None:
        now = time.monotonic()
        if slot.respawn_at is not None:
            if now >= slot.respawn_at:
                self.respawns += 1
                self._spawn(slot)
                self._emit(
                    f"worker {slot.index} respawned "
                    f"(recovery {self.respawns}, "
                    f"{slot.rapid_failures} rapid failures on this slot)"
                )
            return
        if slot.terminal() or slot.proc is None or slot.proc.poll() is None:
            return
        returncode = slot.proc.returncode
        if returncode == 0:
            slot.drained = True  # clean drain/preemption: service is over
            return
        if any(other.drained for other in self._slots):
            # A sibling drained, so the sweep this pool served is over: a
            # worker failing now (say one that started too late and found
            # the sweep host gone) has nothing to come back for.
            slot.drained = True
            self._emit(
                f"worker {slot.index} exited {returncode} after the pool "
                f"drained; not respawning"
            )
            return
        if slot.fault is not None and not self.respawn_faulted:
            slot.abandoned = True  # fault drills want the corpse left alone
            return
        rapid = (now - slot.spawned_at) < self.rapid_seconds
        slot.rapid_failures = slot.rapid_failures + 1 if rapid else 1
        if slot.rapid_failures >= self.max_rapid_failures:
            slot.sick = True
            self._emit(
                f"worker {slot.index} circuit breaker open: "
                f"{slot.rapid_failures} rapid failures (exit {returncode}); "
                f"not respawning"
            )
            return
        if slot.backoff is None or not rapid:
            slot.backoff = backoff_delays(
                self.backoff_base, self.backoff_cap, self._rng
            )
        delay = next(slot.backoff)
        slot.respawn_at = now + delay
        self._emit(
            f"worker {slot.index} exited {returncode}; "
            f"respawning in {delay:.2f}s"
        )

    # -------------------------------------------------------------- queries
    def alive_count(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive())

    def sick(self) -> bool:
        """True when at least one slot's circuit breaker has opened."""
        with self._lock:
            return any(slot.sick for slot in self._slots)

    def gave_up(self) -> bool:
        """No live worker, no pending respawn: nobody will ever serve again.

        The executor's dead-cluster watchdog aborts on this (in pure-local
        mode) — a merely *crashed* worker mid-backoff does not count, since
        its respawn is already scheduled.
        """
        with self._lock:
            return all(
                not slot.alive() and slot.respawn_at is None
                and slot.terminal()
                for slot in self._slots
            )

    def drained(self) -> bool:
        """True when every slot retired cleanly (exit 0)."""
        with self._lock:
            return all(slot.drained for slot in self._slots)

    # ------------------------------------------------------------- control
    def kill(self, index: int, signum: int = signal.SIGKILL) -> Optional[int]:
        """Signal one worker (drills) and reap it; returns its exit status.

        A SIGKILL'd worker is respawned; a SIGTERM'd one releases its lease,
        exits 0, and stays retired.
        """
        with self._lock:
            proc = self._slots[index].proc
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signum)
        return proc.wait()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every slot is terminal; True iff all drained cleanly."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                slots = list(self._slots)
                settled = all(
                    slot.terminal() and not slot.alive() for slot in slots
                )
            if settled:
                return all(slot.drained for slot in slots)
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.1)

    def close(self, timeout: float = 5.0) -> None:
        """Stop supervising, wait briefly for drains, terminate stragglers."""
        self._closed.set()
        self._monitor.join(timeout=2.0)
        deadline = time.monotonic() + timeout
        with self._lock:
            procs = [slot.proc for slot in self._slots if slot.proc is not None]
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def run_supervisor(
    host: str,
    port: int,
    pool: int,
    heartbeat: Optional[float] = None,
    redial: Optional[float] = None,
    fault: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    token: Optional[str] = None,
    max_rapid_failures: int = DEFAULT_MAX_RAPID_FAILURES,
) -> int:
    """Foreground driver behind ``repro workers --pool N``.

    Runs the pool until every slot retires; returns 0 when all drained
    cleanly and 1 when any slot's circuit breaker opened (the host is sick).
    SIGTERM/SIGINT terminate the children (each SIGTERM'd worker releases
    its lease cleanly) and exit 0.  A ``--fault`` mode set here applies to
    every slot **and** keeps respawning it — that is the point: the drill
    exists to exercise the breaker.
    """
    import signal

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    supervisor = WorkerSupervisor(
        host, port, pool,
        faults=[fault] * pool if fault else None,
        heartbeat=heartbeat,
        redial=redial,
        checkpoint_every=checkpoint_every,
        token=token,
        max_rapid_failures=max_rapid_failures,
        respawn_faulted=True,
        on_event=lambda message: print(
            f"workers: {message}", file=sys.stderr, flush=True
        ),
    )
    try:
        while not stop.is_set():
            with supervisor._lock:
                settled = all(
                    slot.terminal() and not slot.alive()
                    for slot in supervisor._slots
                )
            if settled:
                break
            stop.wait(0.2)
    finally:
        supervisor.close()
    if stop.is_set():
        print("workers: terminated by signal", file=sys.stderr)
        return 0
    if supervisor.sick():
        print(
            "workers: pool is sick (circuit breaker open); not respawning",
            file=sys.stderr,
        )
        return 1
    print(
        f"workers: pool drained ({supervisor.respawns} respawns)",
        file=sys.stderr,
    )
    return 0

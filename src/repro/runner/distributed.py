"""Distributed sweep execution: the worker wire, workers, and the executor.

The contention-scenario grids (cores x config x contention x backoff) and the
paper's fig7-fig11 grids saturate one machine's process pool; this module
fans a sweep out across hosts while keeping the executor contract — and the
results — identical to a serial run.

Three pieces:

* the wire — JSON-lines helpers and the :class:`Listener` that accepts the
  connections of both planes of :mod:`repro.service`;
* ``repro worker --connect host:port`` (:func:`run_worker`) — the process any
  host runs to pull spec payloads and push ``SimResult`` dicts back.  It
  executes specs through exactly the serialization path the process-pool
  executor and the result cache use (:func:`~repro.runner.executor._execute_payload`),
  so determinism via the sha256-derived RNG streams makes distributed results
  bit-identical to serial ones.
* :class:`DistributedExecutor` — implements the ``run_iter``-in-completion-
  order executor contract, so ``Runner``, the result cache, ``SpecProgress``
  streaming, and ``--progress`` compose unchanged.  It runs the sweep as the
  one job of an embedded :class:`~repro.service.jobstore.JobStore`, served
  on ``(host, port)`` by the service's worker plane
  (:class:`~repro.service.daemon.ServiceBroker`); with ``workers=N`` a
  :class:`~repro.runner.supervisor.WorkerSupervisor` runs N localhost
  workers, and external ``repro worker`` processes may join as well.

Work assignment is lease-based: every task carries a deadline that the
executing worker's heartbeats extend; an expired lease or a dropped
connection requeues the task with the offending worker excluded, and a spec
that exhausts its attempts is reported as failed instead of wedging the
sweep.

Wire protocol (one TCP connection per worker, one JSON object per line)::

    worker -> {"type": "hello", "worker": "<id>", "token": <secret>|absent}
    broker -> {"type": "welcome", "lease_seconds": <s>, "worker": "<id>"}
            | {"type": "reject", "reason": "<why>"}  (bad token)
    worker -> {"type": "next"}
    broker -> {"type": "task", "task": <id>, "payload": {<RunSpec dict>}}
            | {"type": "idle", "delay": <s>}       (nothing assignable yet)
            | {"type": "drain"}                    (sweep finished; exit)
    worker -> {"type": "heartbeat", "task": <id>}  (no reply; extends lease)
    worker -> {"type": "result", "task": <id>, "result": {<SimResult dict>}}
    worker -> {"type": "error", "task": <id>, "error": "<reason>"}
    worker -> {"type": "checkpoint", "task": <id>, "snapshot": {<document>}}
    worker -> {"type": "release", "task": <id>, "snapshot": {<document>}|null}

``result``/``error`` get no reply; the worker immediately sends the next
``next``.  Late results from a worker whose lease already expired are still
accepted (first result wins — they are deterministic), so a slow-but-alive
worker never wastes its work.

Checkpoint shipping (store built with ``checkpoint_every``): every task
message carries ``checkpoint_every`` and, when the store holds one, a
``checkpoint`` snapshot document; the worker resumes mid-spec from it and
ships a fresh ``checkpoint`` message every N events.  A SIGTERM'd worker
sends ``release`` — a *clean* lease return that refunds the attempt and
excludes nobody, unlike ``error`` — optionally carrying a final snapshot, so
the replacement worker restarts the spec from the last slice boundary rather
than from zero.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
import uuid
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, ExecutionError
from repro.machine.results import SimResult
from repro.runner.executor import (
    _ExecutorBase,
    describe_error,
    execute_spec,
    failures_error,
    partial_sweep_error,
)
from repro.runner.spec import RunSpec
from repro.runner.supervisor import (
    FAULT_ENV,
    WORKER_FAULTS,
    WorkerSupervisor,
    backoff_delays,
)

#: Default lease duration; heartbeats every ``lease/3`` keep long specs alive.
DEFAULT_LEASE_SECONDS = 30.0
#: Default per-spec assignment budget (first attempt plus two retries).
DEFAULT_MAX_ATTEMPTS = 3


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (empty host means localhost) into a tuple."""
    host, separator, port = text.rpartition(":")
    if not separator or not port.isdigit():
        raise ConfigurationError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def connect_host(bind_host: str) -> str:
    """A host workers on *this* machine can dial for the given bind host.

    A wildcard bind (``0.0.0.0`` / ``::``) is a listening address, not a
    reachable one — local workers must dial loopback instead.
    """
    return "127.0.0.1" if bind_host in ("", "0.0.0.0", "::") else bind_host


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------
def _send(sock: socket.socket, lock: threading.Lock, message: Dict[str, Any]) -> None:
    data = (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")
    with lock:
        sock.sendall(data)


def _read(reader: Any) -> Optional[Dict[str, Any]]:
    """One JSON message, or None when the peer closed the connection."""
    line = reader.readline()
    if not line:
        return None
    return json.loads(line)


class Listener:
    """Accept TCP connections and serve each one on its own daemon thread.

    The one accept loop behind both planes of :mod:`repro.service`: the
    worker plane and the HTTP plane.  Every accepted socket gets
    ``TCP_NODELAY``: both wires trade small request/response writes, which
    Nagle's algorithm would hold back until the peer's delayed ACK (~40 ms).
    :meth:`close` shuts the listening socket down before closing it — on
    Linux that wakes the thread blocked in ``accept()`` at once, where a
    bare ``close()`` leaves it blocked — then shuts every live connection
    down with ``sever`` and joins the handler threads, so a clean teardown
    never waits out a timeout.
    """

    def __init__(
        self,
        bind: Tuple[str, int],
        handle: Callable[[socket.socket], None],
        label: str,
        sever: int = socket.SHUT_RDWR,
    ) -> None:
        self._bind = bind
        self._handle = handle
        self._label = label
        self._sever = sever
        self._sock: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._live: Dict[socket.socket, threading.Thread] = {}
        self._closing = False

    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        try:
            self._sock = socket.create_server(self._bind)
        except OSError as error:
            raise ConfigurationError(
                f"cannot bind {self._label} to "
                f"{self._bind[0]}:{self._bind[1]}: {error}"
            )
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()
        return self._sock.getsockname()[:2]

    def close(self) -> None:
        with self._lock:
            self._closing = True
            live = list(self._live.items())
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already shut down
            self._sock.close()
        for conn, _ in live:
            # shutdown(), not close(): a handler's makefile() reader holds an
            # io-ref, so close() alone would defer the real FD close and the
            # connection would silently stay alive.
            try:
                conn.shutdown(self._sever)
            except OSError:
                pass
        # A safety net only: every thread joined here was just woken.
        deadline = time.monotonic() + 2.0
        for thread in [self._acceptor] + [thread for _, thread in live]:
            if thread is not None:
                thread.join(max(0.0, deadline - time.monotonic()))

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener shut down
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                thread = threading.Thread(
                    target=self._serve, args=(conn,), daemon=True
                )
                self._live[conn] = thread
                thread.start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handle(conn)
        except OSError:
            pass  # the peer went away mid-exchange
        finally:
            with self._lock:
                self._live.pop(conn, None)
            conn.close()


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------
def worker_id() -> str:
    """A globally unique worker name: host, pid, and a random suffix."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    """Dial the broker, retrying while it (or the network) comes up.

    Retries back off exponentially with jitter (see
    :func:`~repro.runner.supervisor.backoff_delays`): a supervisor respawning
    a whole fleet, or a pool of workers redialing a restarted broker, must
    not hammer the listen backlog in lockstep.  ``timeout`` caps the *total*
    dial time, not any single attempt.
    """
    deadline = time.monotonic() + timeout
    delays = backoff_delays(0.05, 1.0)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
        except OSError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise
            time.sleep(min(next(delays), max(0.0, remaining)))
            continue
        # A worker writes ``result`` then ``next`` back to back; with Nagle
        # on, ``next`` would sit out the broker's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def _handshake(
    host: str,
    port: int,
    name: str,
    connect_timeout: float = 10.0,
    token: Optional[str] = None,
) -> Tuple[socket.socket, Any, threading.Lock, float, str]:
    """Dial the broker and complete the JSON handshake as worker ``name``.

    Returns ``(sock, reader, write_lock, lease_seconds, assigned_name)``.
    Shared by the initial dial and mid-sweep redials; the worker adopts the
    broker-assigned (collision-suffixed) name and keeps it across redials so
    its exclusions on the broker survive the reconnect.  ``token`` is the
    shared service secret; a token-checking broker answers a bad one with a
    ``reject`` message, surfaced here as :class:`ExecutionError`.
    """
    sock = _connect(host, port, timeout=connect_timeout)
    write_lock = threading.Lock()
    reader = sock.makefile("r", encoding="utf-8")
    hello: Dict[str, Any] = {"type": "hello", "worker": name}
    if token is not None:
        hello["token"] = token
    try:
        _send(sock, write_lock, hello)
        welcome = _read(reader)
    except (OSError, ValueError) as error:
        # ValueError: the peer spoke, but not JSON — probably not a broker.
        sock.close()
        raise ExecutionError(
            f"broker at {host}:{port} did not complete the JSON handshake: "
            f"{describe_error(error)}"
        )
    if isinstance(welcome, dict) and welcome.get("type") == "reject":
        sock.close()
        raise ExecutionError(
            f"broker at {host}:{port} rejected worker {name!r}: "
            f"{welcome.get('reason') or 'unauthorized'}"
        )
    try:
        if welcome is None or welcome["type"] != "welcome":
            raise KeyError("welcome")  # repro: noqa[ERR001] -- control flow: caught two lines down and converted to ExecutionError
        lease = float(welcome.get("lease_seconds") or DEFAULT_LEASE_SECONDS)
    except (KeyError, TypeError, ValueError):
        sock.close()
        raise ExecutionError(
            f"broker at {host}:{port} rejected the handshake "
            f"(reply {welcome!r})"
        )
    assigned = str(welcome.get("worker") or name)
    return sock, reader, write_lock, lease, assigned


def _redial(
    host: str,
    port: int,
    name: str,
    redial_seconds: Optional[float],
    stop: threading.Event,
    token: Optional[str] = None,
) -> Optional[Tuple[socket.socket, Any, threading.Lock, float, str]]:
    """Try to rejoin a (journaled, restarting) broker after losing it idle.

    Jittered-backoff attempts until ``redial_seconds`` elapse; returns a
    fresh handshake tuple, or None when the deadline expires, redial is
    disabled (None/0 — the historical drain-immediately behavior), or a
    SIGTERM arrives mid-redial.
    """
    if not redial_seconds:
        return None
    deadline = time.monotonic() + redial_seconds
    delays = backoff_delays(0.1, 2.0)
    while not stop.is_set():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            return _handshake(
                host, port, name, connect_timeout=min(remaining, 2.0),
                token=token,
            )
        except (OSError, ExecutionError):
            pass  # still down (or mid-restart); back off and retry
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        stop.wait(min(next(delays), remaining))
    return None


def _heartbeat_loop(
    sock: socket.socket,
    write_lock: threading.Lock,
    task_id: Union[int, str],
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        try:
            _send(sock, write_lock, {"type": "heartbeat", "task": task_id})
        except OSError:
            return  # broker went away; the main loop will notice


def _execute_task(
    sock: socket.socket,
    write_lock: threading.Lock,
    task_id: Union[int, str],
    payload: Dict[str, Any],
    checkpoint_every: Optional[int],
    checkpoint_doc: Optional[Dict[str, Any]],
    stop_requested: threading.Event,
) -> Dict[str, Any]:
    """Execute one assigned spec: sliced, resumable, checkpoint-shipping.

    Spec dict in, result dict out through
    :func:`~repro.runner.executor.execute_spec`, like the process pool's
    :func:`~repro.runner.executor._execute_payload`, with mid-spec resume
    from a shipped checkpoint, periodic ``checkpoint`` messages back to the
    broker, and cooperative preemption
    (:class:`~repro.snapshot.ExecutionPreempted` propagates to the caller,
    which turns it into a ``release``).
    """
    from repro.errors import SnapshotError
    from repro.snapshot import parse_document, snapshot_document

    spec = RunSpec.from_dict(payload)
    resume_from = None
    if checkpoint_doc is not None:
        try:
            resume_from = parse_document(
                checkpoint_doc, source=f"task {task_id} checkpoint"
            )
        except SnapshotError:
            resume_from = None  # corrupt in flight; run from scratch instead

    def ship(snapshot: Any) -> None:
        _send(sock, write_lock, {
            "type": "checkpoint", "task": task_id,
            "snapshot": snapshot_document(snapshot),
        })

    result = execute_spec(
        spec,
        checkpoint_every=checkpoint_every,
        resume_from=resume_from,
        should_stop=stop_requested.is_set,
        on_checkpoint=ship if checkpoint_every is not None else None,
    )
    return result.to_dict()


def run_worker(
    host: str,
    port: int,
    heartbeat: Optional[float] = None,
    max_tasks: Optional[int] = None,
    fault: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    redial: Optional[float] = None,
    token: Optional[str] = None,
) -> int:
    """Pull specs from the broker at ``(host, port)`` until it drains.

    Returns the number of specs completed.  ``fault`` (or the
    :data:`FAULT_ENV` environment variable) injects worker-level failures for
    tests and chaos drills: ``exit-on-task`` kills the process the moment a
    task is assigned (a crash holding a lease), ``error-on-task`` reports
    every task as failed without running it.  After each failed task the
    worker waits a jittered, doubling delay before asking for the next one
    (reset by a success), so a sick host cannot outrun its healthy peers.

    Specs run in event slices, so the worker stays responsive: a SIGTERM
    mid-spec stops the simulation at the next slice boundary, ships the
    final snapshot in a ``release`` message (clean lease return — no attempt
    burned, no exclusion), and exits 0.  ``checkpoint_every`` (usually
    pushed per task by a checkpointing broker; the argument is a local
    default) additionally ships a ``checkpoint`` every N events, and an
    assignment carrying a prior checkpoint is resumed from it.

    ``redial`` opts into riding out broker outages: a worker that loses the
    broker while *idle* redials with jittered backoff for up to that many
    seconds (rejoining under the same worker name, so exclusions stick)
    before treating the loss as a drain.  The default (None/0) keeps the
    historical behavior — an idle worker whose broker vanishes exits 0
    immediately, which is correct for non-journaled brokers that can never
    come back.  Losing the broker *while holding a task* stays a nonzero
    exit either way: completed work was lost and a supervisor should know.
    """
    import signal

    fault = fault or os.environ.get(FAULT_ENV) or None
    if fault is not None and fault not in WORKER_FAULTS:
        raise ConfigurationError(
            f"unknown worker fault {fault!r}; choices: {list(WORKER_FAULTS)}"
        )
    if heartbeat is not None and heartbeat <= 0:
        raise ConfigurationError("heartbeat interval must be positive seconds")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be a positive event count")
    if redial is not None and redial < 0:
        raise ConfigurationError("redial must be >= 0 seconds")
    stop_requested = threading.Event()
    # Signal handlers are a main-thread-only privilege; tests drive
    # run_worker from helper threads, where SIGTERM keeps its default
    # disposition and preemption is exercised via the event directly.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda signum, frame: stop_requested.set())
    name = worker_id()
    # Adopt the broker-assigned name: a collision-suffixed unique name keeps
    # this worker's stats and exclusions separate from a same-named twin.
    sock, reader, write_lock, lease, name = _handshake(
        host, port, name, token=token
    )
    interval = heartbeat if heartbeat is not None else max(0.05, lease / 3.0)
    completed = 0
    failing: Optional[Iterator[float]] = None  # backoff after failed tasks
    try:
        while True:
            if stop_requested.is_set():
                break  # SIGTERM between tasks: nothing leased, just leave
            reply = None
            try:
                _send(sock, write_lock, {"type": "next"})
                reply = _read(reader)
            except OSError:
                pass  # connection error: same broker-gone case as the EOF
            except ValueError as error:
                raise ExecutionError(
                    f"protocol error from broker at {host}:{port}: "
                    f"{describe_error(error)}"
                )
            if reply is None:
                # Broker gone (EOF or error) while we hold no task — a
                # SIGKILL'd broker usually reads as a clean EOF, exactly like
                # a drained sweep host closing up.  With redial enabled
                # (journaled brokers restart), try to rejoin first; only a
                # failed redial — or none configured — is treated as the
                # drain it is indistinguishable from, and nothing is lost.
                rejoined = _redial(
                    host, port, name, redial, stop_requested, token=token
                )
                if rejoined is None:
                    break
                sock.close()
                sock, reader, write_lock, lease, name = rejoined
                if heartbeat is None:
                    interval = max(0.05, lease / 3.0)
                continue
            try:
                reply_type = reply["type"]
                if reply_type == "drain":
                    break
                if reply_type == "idle":
                    time.sleep(float(reply.get("delay", 0.1)))
                    continue
                if reply_type != "task":
                    raise KeyError(reply_type)  # repro: noqa[ERR001] -- control flow: caught by the reply loop and retried as a protocol error
                # Task ids are opaque to the worker and echoed verbatim (the
                # store's are "job-id/position" strings).
                task_id = reply["task"]
                if not isinstance(task_id, (int, str)):
                    raise TypeError("task")  # repro: noqa[ERR001] -- control flow: caught by the reply-shape handler below and converted to ExecutionError
                spec_payload = reply["payload"]
                task_every = reply.get("checkpoint_every", checkpoint_every)
                task_every = int(task_every) if task_every is not None else None
                task_checkpoint = reply.get("checkpoint")
            except (KeyError, TypeError, ValueError) as error:
                # Valid JSON, wrong shape: a version-skewed broker or some
                # other JSON-lines service entirely.
                raise ExecutionError(
                    f"protocol error from broker at {host}:{port}: "
                    f"unexpected reply {reply!r} ({describe_error(error)})"
                )
            if fault == "exit-on-task":
                os._exit(3)  # simulate a hard crash while holding the lease
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, write_lock, task_id, interval, stop),
                daemon=True,
            )
            beat.start()
            try:
                if fault == "error-on-task":
                    raise ExecutionError("injected worker fault (error-on-task)")
                report: Dict[str, Any] = {
                    "type": "result", "task": task_id,
                    "result": _execute_task(
                        sock, write_lock, task_id, spec_payload,
                        task_every, task_checkpoint, stop_requested,
                    ),
                }
            except Exception as error:  # noqa: BLE001 - reported to the broker
                from repro.snapshot import ExecutionPreempted, snapshot_document

                if isinstance(error, ExecutionPreempted):
                    # SIGTERM mid-spec: return the lease cleanly with the
                    # final snapshot so the replacement resumes mid-spec.
                    report = {
                        "type": "release", "task": task_id,
                        "snapshot": snapshot_document(error.snapshot),
                    }
                else:
                    report = {
                        "type": "error", "task": task_id,
                        "error": describe_error(error),
                    }
            finally:
                stop.set()
                beat.join()
            try:
                _send(sock, write_lock, report)
            except OSError as error:
                # Losing the broker *while holding a task* is abnormal: the
                # completed work is lost and a supervisor should know.  A
                # straggler whose task was meanwhile completed elsewhere and
                # whose sweep already drained hits this too — the worker
                # cannot tell the two apart, and under-reporting lost work
                # is the worse failure mode, so it exits nonzero either way.
                raise ExecutionError(
                    f"connection to broker lost while reporting task "
                    f"{task_id}: {describe_error(error)}"
                )
            if report["type"] == "result":
                completed += 1
            if report["type"] == "release":
                break  # preempted: the lease is returned, exit cleanly
            if max_tasks is not None and completed >= max_tasks:
                break
            if report["type"] == "error":
                # Back off before asking again.  Exclusion falls back to the
                # reporter while it is the only worker connected, so at wire
                # speed a broken host would burn every spec's attempts
                # before a healthy peer has finished starting up.
                failing = failing or backoff_delays(0.05, 1.0)
                stop_requested.wait(next(failing))
            else:
                failing = None
    finally:
        sock.close()
    return completed


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
#: Longest a finished sweep with external workers waits for them to collect
#: their ``drain`` before it closes the worker plane.
DRAIN_GRACE_SECONDS = 2.0


def _announce_default(host: str, port: int) -> None:
    # A wildcard bind address is not dialable: tell remote operators to use
    # this machine's name instead of a copy-pasteable-but-wrong 0.0.0.0.
    reach = socket.gethostname() if host in ("", "0.0.0.0", "::") else host
    print(
        f"broker listening on {host}:{port}; join workers with: "
        f"python -m repro worker --connect {reach}:{port}",
        file=sys.stderr,
        flush=True,
    )


class DistributedExecutor(_ExecutorBase):
    """Run specs as the one job of an embedded store feeding ``repro worker``s.

    Implements the ``run_iter`` completion-order contract, so it drops into
    ``Runner`` (cache, ``SpecProgress`` streaming, ``--progress``) exactly
    like the serial and process-pool executors.  Per-spec failures are
    retried up to ``max_attempts`` assignments with the crashed/timed-out
    worker excluded; specs that still fail surface as one
    :class:`~repro.errors.ExecutionError` *after* every successful result has
    been yielded.  ``last_stats`` holds the final store counters of the most
    recent sweep (assigned/completed/failed/requeued/expired/timed_out/...).
    """

    def __init__(
        self,
        workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        heartbeat: Optional[float] = None,
        faults: Optional[Sequence[Optional[str]]] = None,
        announce: Optional[Callable[[str, int], None]] = None,
        external: Optional[bool] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        journal_dir: Optional[str] = None,
        spec_deadline: Optional[float] = None,
        sweep_deadline: Optional[float] = None,
        redial: Optional[float] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = external workers)")
        if heartbeat is not None and heartbeat <= 0:
            raise ConfigurationError("heartbeat interval must be positive seconds")
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.journal_dir = journal_dir
        self.spec_deadline = spec_deadline
        self.sweep_deadline = sweep_deadline
        self.redial = redial
        self.host = host
        self.port = port
        #: Whether external workers are expected to join: announce the broker
        #: address and never abort on a dead local cluster.  Defaults to
        #: "no local workers, or a non-ephemeral port was requested"; pass
        #: explicitly for an ephemeral --bind (HOST:0) with local workers.
        self.external = external if external is not None else (
            workers == 0 or port != 0
        )
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.heartbeat = heartbeat
        self.faults = faults
        self.announce = announce
        self.last_stats: Optional[Dict[str, int]] = None

    def run_iter(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        if not specs:
            return
        # Imported here: serial, --parallel and --submit runs never load the
        # service package.
        from repro.runner.journal import ServiceJournal
        from repro.service import JobStore, ServiceBroker

        store = JobStore(
            journal=(
                ServiceJournal(self.journal_dir)
                if self.journal_dir is not None else None
            ),
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            spec_deadline=self.spec_deadline,
            sweep_deadline=self.sweep_deadline,
            drain=True,
        )
        job = store.submit_sweep(specs)
        broker = ServiceBroker(store, self.host, self.port)
        cluster: Optional[WorkerSupervisor] = None
        try:
            broker.start()
            if self.workers:
                # Supervised, not fire-and-forget: a healthy worker that
                # crashes is respawned (jittered backoff, circuit breaker);
                # fault-injected slots stay down, as the drills require.
                cluster = WorkerSupervisor(
                    connect_host(broker.host), broker.port, self.workers,
                    faults=self.faults, heartbeat=self.heartbeat,
                    redial=self.redial,
                )
            if self.external:
                # External workers are expected: tell them where to join.
                (self.announce or _announce_default)(broker.host, broker.port)
            landed, settled = 0, False
            while not settled:
                runs, settled = store.wait_for_landed(job, landed, 0.5)
                landed += len(runs)
                yield from runs
                # Abort only in pure-local mode (owned pool, no external
                # joiners expected): there, a pool that gave up — every slot
                # drained, abandoned, or circuit-broken, none awaiting
                # respawn — means nobody can ever serve the sweep.  With
                # external workers expected — present, or still to come —
                # the sweep must keep waiting.
                if (
                    not runs
                    and cluster is not None
                    and not self.external
                    and cluster.gave_up()
                    and store.worker_count() == 0
                ):
                    store.abort(
                        job,
                        "every local worker process has exited "
                        "and no external workers are connected",
                    )
            if self.external:
                # Idle external workers collect their drain within one idle
                # poll; closing the plane first would send them redialing.
                store.wait_for_drain(DRAIN_GRACE_SECONDS)
        finally:
            if cluster is not None:
                cluster.close()
            broker.close()
            store.close_journal()
            self.last_stats = dict(store.stats)
        plain: List[Tuple[RunSpec, str]] = []
        timed_out: List[Tuple[RunSpec, str]] = []
        for position, reason, by_deadline in store.job_failures(job):
            (timed_out if by_deadline else plain).append(
                (specs[position], reason)
            )
        if timed_out:
            raise partial_sweep_error(plain, timed_out, len(specs))
        if plain:
            raise failures_error(plain, len(specs))

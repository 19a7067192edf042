"""Distributed sweep execution: a JSON-lines-over-TCP broker plus workers.

The contention-scenario grids (cores x config x contention x backoff) and the
paper's fig7-fig11 grids saturate one machine's process pool; this module
fans a sweep out across hosts while keeping the executor contract — and the
results — identical to a serial run.

Three pieces:

* :class:`Broker` — owns one batch of spec payloads and serves them to
  pull-based workers over newline-delimited JSON on TCP.  Work assignment is
  lease-based: every task carries a deadline that the executing worker's
  heartbeats extend; an expired lease or a dropped connection requeues the
  task with the offending worker excluded, and a spec that exhausts its
  attempts is reported as failed instead of wedging the sweep.
* ``repro worker --connect host:port`` (:func:`run_worker`) — the process any
  host runs to pull spec payloads and push ``SimResult`` dicts back.  It
  executes specs through exactly the serialization path the process-pool
  executor and the result cache use (:func:`~repro.runner.executor._execute_payload`),
  so determinism via the sha256-derived RNG streams makes distributed results
  bit-identical to serial ones.
* :class:`DistributedExecutor` — implements the ``run_iter``-in-completion-
  order executor contract, so ``Runner``, the result cache, ``SpecProgress``
  streaming, and ``--progress`` compose unchanged.  With ``workers=N`` it
  spins a :class:`LocalCluster` of N localhost worker subprocesses per sweep;
  with ``workers=0`` it binds ``(host, port)`` and waits for external
  ``repro worker`` processes to join.

Wire protocol (one TCP connection per worker, one JSON object per line)::

    worker -> {"type": "hello", "worker": "<id>"}
    broker -> {"type": "welcome", "lease_seconds": <s>}
    worker -> {"type": "next"}
    broker -> {"type": "task", "task": <n>, "payload": {<RunSpec dict>}}
            | {"type": "idle", "delay": <s>}       (nothing assignable yet)
            | {"type": "drain"}                    (sweep finished; exit)
    worker -> {"type": "heartbeat", "task": <n>}   (no reply; extends lease)
    worker -> {"type": "result", "task": <n>, "result": {<SimResult dict>}}
    worker -> {"type": "error", "task": <n>, "error": "<reason>"}
    worker -> {"type": "checkpoint", "task": <n>, "snapshot": {<document>}}
    worker -> {"type": "release", "task": <n>, "snapshot": {<document>}|null}

``result``/``error`` get no reply; the worker immediately sends the next
``next``.  Late results from a worker whose lease already expired are still
accepted (first result wins — they are deterministic), so a slow-but-alive
worker never wastes its work.

Checkpoint shipping (broker built with ``checkpoint_every``): every task
message carries ``checkpoint_every`` and, when the broker holds one, a
``checkpoint`` snapshot document; the worker resumes mid-spec from it and
ships a fresh ``checkpoint`` message every N events.  A SIGTERM'd worker
sends ``release`` — a *clean* lease return that refunds the attempt and
excludes nobody, unlike ``error`` — optionally carrying a final snapshot, so
the replacement worker restarts the spec from the last slice boundary rather
than from zero.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from queue import Empty, Queue
from typing import (
    Any,
    Callable,
    Deque,
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
    failures_error,
    partial_sweep_error,
)
from repro.runner.spec import RunSpec
from repro.runner.supervisor import WorkerSupervisor, backoff_delays

#: Default lease duration; heartbeats every ``lease/3`` keep long specs alive.
DEFAULT_LEASE_SECONDS = 30.0
#: Default per-spec assignment budget (first attempt plus two retries).
DEFAULT_MAX_ATTEMPTS = 3
#: Environment variable carrying a worker fault-injection mode (tests/drills).
FAULT_ENV = "REPRO_WORKER_FAULT"
#: Recognized fault-injection modes for ``repro worker --fault``.
WORKER_FAULTS = ("exit-on-task", "error-on-task")


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

    The one accept loop behind the sweep :class:`Broker`, the service's
    worker plane and its HTTP plane.  Every accepted socket gets
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


def claim_worker_name(requested: str, in_use: Any) -> str:
    """A connection-unique worker name: ``requested``, or ``requested#N``.

    Two workers arriving with the same auto-generated name (cloned VMs,
    copy-pasted ``--connect`` commands from different clients) would
    otherwise alias in broker stats and — worse — in per-task exclusion
    sets, letting a crashing worker's retry land right back on its
    same-named twin.  The broker assigns the suffixed name at handshake
    and echoes it in the welcome message; the worker adopts it for the
    rest of the session (heartbeats, redials), so exclusions stay keyed
    on the unique name.  Caller holds the lock guarding ``in_use``.
    """
    if requested not in in_use:
        return requested
    ordinal = 2
    while f"{requested}#{ordinal}" in in_use:
        ordinal += 1
    return f"{requested}#{ordinal}"


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------
_READY, _LEASED, _DONE, _FAILED = "ready", "leased", "done", "failed"


class _Task:
    __slots__ = ("position", "payload", "state", "attempts", "excluded",
                 "worker", "deadline", "errors", "checkpoint", "key",
                 "first_assigned", "timed_out")

    def __init__(self, position: int, payload: Dict[str, Any]) -> None:
        self.position = position
        self.payload = payload
        self.state = _READY
        self.attempts = 0
        self.excluded: set = set()
        self.worker: Optional[str] = None
        self.deadline = 0.0
        self.errors: List[str] = []
        #: Latest shipped :class:`~repro.snapshot.Snapshot`, if any; attached
        #: to the next assignment so a replacement worker resumes mid-spec.
        self.checkpoint: Optional[Any] = None
        #: Spec content key (sha256); set only on journaled brokers, where
        #: records must survive grid renumbering across restarts.
        self.key: Optional[str] = None
        #: Wall-clock (monotonic) of the *first* assignment — the per-spec
        #: deadline measures total time-in-flight, not per-attempt time.
        self.first_assigned: Optional[float] = None
        #: True when this task was terminally failed by a deadline, not by
        #: worker errors; surfaces as PartialSweepError on the sweep host.
        self.timed_out = False


class Broker:
    """Serve one batch of spec payloads to pull-based workers over TCP.

    Thread layout: one acceptor, one connection handler per worker, one lease
    monitor.  All task-state transitions happen under ``_lock``; completion
    and terminal-failure events flow through ``_events`` to
    :meth:`events`, which the executor consumes on the sweep host.
    """

    def __init__(
        self,
        payloads: Sequence[Dict[str, Any]],
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        journal_dir: Optional[str] = None,
        spec_deadline_seconds: Optional[float] = None,
        sweep_deadline_seconds: Optional[float] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be a positive event count")
        if spec_deadline_seconds is not None and spec_deadline_seconds <= 0:
            raise ConfigurationError("spec_deadline_seconds must be positive")
        if sweep_deadline_seconds is not None and sweep_deadline_seconds <= 0:
            raise ConfigurationError("sweep_deadline_seconds must be positive")
        self.host = host
        self.port = port
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.spec_deadline_seconds = spec_deadline_seconds
        self.sweep_deadline_seconds = sweep_deadline_seconds
        self._started_at: Optional[float] = None
        self._tasks = [_Task(i, payload) for i, payload in enumerate(payloads)]
        self._ready: Deque[int] = collections.deque(range(len(self._tasks)))
        self._outstanding = len(self._tasks)
        self._lock = threading.Lock()
        self._events: "Queue[Tuple[str, int, Any]]" = Queue()
        self._closed = threading.Event()
        self._listener = Listener((host, port), self._serve, "broker")
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._workers: set = set()
        self.stats = {
            "assigned": 0, "completed": 0, "failed": 0, "requeued": 0,
            "expired": 0, "disconnects": 0, "duplicates": 0,
            "checkpoints": 0, "released": 0, "resumed": 0,
            "replayed": 0, "timed_out": 0,
        }
        self._journal: Optional[Any] = None
        if journal_dir is not None:
            self._attach_journal(journal_dir)
        if self.checkpoint_dir is not None:
            self._preload_checkpoints()

    def _attach_journal(self, journal_dir: str) -> None:
        """Open (and replay, if present) the write-ahead journal.

        Replay happens *before* the listener starts, so a restarted broker
        re-enters the exact task state the journal proves: finished grid
        points go terminal immediately (their events pre-queued for the
        sweep host — re-emitted, never re-run), burned attempts and worker
        exclusions stick, shipped checkpoints are re-adopted, and the attempt
        that was in flight when the old broker died is refunded.
        """
        from repro.runner.journal import BrokerJournal

        self._journal = BrokerJournal(journal_dir)
        for task in self._tasks:
            task.key = RunSpec.from_dict(task.payload).key()
        states = self._journal.replay()
        for task in self._tasks:
            state = states.get(task.key)
            if state is None:
                continue
            if state.result is not None:
                try:
                    parsed = SimResult.from_dict(state.result)
                except Exception:  # noqa: BLE001 - foreign/corrupt payload
                    continue  # treat as never-run rather than crash the sweep
                self._ready.remove(task.position)
                self.stats["replayed"] += 1
                self._finish_locked(task, _DONE, parsed, journal=False)
                continue
            if state.failed:
                task.errors = list(state.errors)
                self._ready.remove(task.position)
                self._finish_locked(task, _FAILED, journal=False)
                continue
            task.attempts = state.settled_attempts()
            task.excluded = set(state.excluded)
            task.errors = list(state.errors)
            if state.checkpoint is not None:
                snapshot = self._parse_checkpoint(task.position, state.checkpoint)
                if snapshot is not None:
                    task.checkpoint = snapshot
                    self.stats["replayed"] += 1

    def _journal_append(self, record: Dict[str, Any]) -> None:
        """Durably log one transition; disk trouble degrades to no journal."""
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError as error:
            import warnings

            from repro.runner.journal import JournalWarning

            warnings.warn(
                f"broker journal write failed ({error}); continuing without "
                f"crash recovery for this sweep",
                JournalWarning,
                stacklevel=2,
            )
            try:
                self._journal.close()
            finally:
                self._journal = None

    def _preload_checkpoints(self) -> None:
        """Adopt checkpoints a previous (killed) sweep host left on disk.

        Journal-replayed checkpoints win: they are at least as fresh as the
        persisted copies (every persisted snapshot was journaled first).
        """
        from repro.snapshot import checkpoint_path, try_load_snapshot

        for task in self._tasks:
            if task.checkpoint is not None or task.state in (_DONE, _FAILED):
                continue
            spec = RunSpec.from_dict(task.payload)
            snapshot, _ = try_load_snapshot(
                checkpoint_path(self.checkpoint_dir, spec)
            )
            if snapshot is not None and snapshot.spec == spec:
                task.checkpoint = snapshot

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "Broker":
        self.host, self.port = self._listener.start()
        self._started_at = time.monotonic()
        self._monitor.start()
        return self

    def close(self) -> None:
        self._closed.set()
        self._listener.close()
        if self._monitor.is_alive():
            self._monitor.join(timeout=2.0)
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------- queries
    def outstanding(self) -> int:
        """Tasks not yet terminal (neither done nor failed)."""
        with self._lock:
            return self._outstanding

    def worker_count(self) -> int:
        """Workers currently connected (hello received, not disconnected)."""
        with self._lock:
            return len(self._workers)

    def closed(self) -> bool:
        """True once :meth:`close` ran (chaos drills poll this mid-kill)."""
        return self._closed.is_set()

    def timed_out_positions(self) -> set:
        """Positions terminally failed by a spec deadline or the sweep budget."""
        with self._lock:
            return {task.position for task in self._tasks if task.timed_out}

    def abort(self, reason: str) -> None:
        """Terminally fail every non-finished task (unblocks :meth:`events`).

        Abort failures are *not* journaled: they reflect this session's
        environment (every local worker died), not a durable fact about the
        spec, and a restarted broker should retry those grid points.
        """
        with self._lock:
            for task in self._tasks:
                if task.state in (_DONE, _FAILED):
                    continue
                if task.state == _READY:
                    try:
                        self._ready.remove(task.position)
                    except ValueError:
                        pass
                task.errors.append(reason)
                self._finish_locked(task, _FAILED, journal=False)

    def events(
        self,
        poll: Optional[Callable[[], None]] = None,
        poll_interval: float = 0.5,
    ) -> Iterator[Tuple[str, int, Any]]:
        """Yield ``("result"|"failed", position, payload)`` until all terminal.

        ``payload`` is the parsed :class:`SimResult` for ``"result"`` events
        and the joined failure reasons (a string) for ``"failed"`` ones.
        ``poll`` runs whenever no event arrived for ``poll_interval`` seconds
        — the executor's liveness watchdog hook.
        """
        pending = len(self._tasks)
        while pending:
            try:
                event = self._events.get(timeout=poll_interval)
            except Empty:
                if poll is not None:
                    poll()
                continue
            pending -= 1
            yield event

    # ----------------------------------------------------- connection side
    def _serve(self, conn: socket.socket) -> None:
        # Live peers are chatty (idle workers poll every ~50 ms, leased ones
        # heartbeat every lease/3), so a generous read timeout only ever
        # fires for a half-open connection whose host dropped without a
        # FIN/RST — which would otherwise stay in _workers forever, blocking
        # the exclusion fallback and wedging the sweep.
        conn.settimeout(max(self.lease_seconds * 2.0, 10.0))
        write_lock = threading.Lock()
        worker = f"anon-{uuid.uuid4().hex[:8]}"
        reader = conn.makefile("r", encoding="utf-8")
        try:
            while True:
                try:
                    message = _read(reader)
                except (OSError, ValueError):
                    break
                if message is None:
                    break
                try:
                    kind = message.get("type")
                    if kind == "hello":
                        requested = str(message.get("worker") or worker)
                        with self._lock:
                            worker = claim_worker_name(requested, self._workers)
                            self._workers.add(worker)
                        _send(conn, write_lock, {
                            "type": "welcome", "lease_seconds": self.lease_seconds,
                            "worker": worker,
                        })
                    elif kind == "next":
                        _send(conn, write_lock, self._assign(worker))
                    elif kind in ("heartbeat", "result", "error",
                                  "checkpoint", "release"):
                        task_id = int(message["task"])
                        if not 0 <= task_id < len(self._tasks):
                            continue  # corrupt or foreign task id; ignore
                        if kind == "heartbeat":
                            self._extend_lease(task_id, worker)
                        elif kind == "result":
                            self._complete(task_id, worker, message["result"])
                        elif kind == "checkpoint":
                            self._store_checkpoint(
                                task_id, worker, message.get("snapshot")
                            )
                        elif kind == "release":
                            self._release(task_id, worker, message.get("snapshot"))
                        else:
                            self._report_error(
                                task_id, worker, str(message.get("error"))
                            )
                except (AttributeError, KeyError, TypeError, ValueError):
                    # Structurally invalid message (JSON array, missing/odd
                    # fields): drop the line, keep the worker's connection —
                    # killing the handler would cost it a lease and an
                    # exclusion for one corrupt line.
                    continue
        except OSError:
            pass
        finally:
            self._disconnect(worker)

    # ------------------------------------------------------ state machine
    def _assign(self, worker: str) -> Dict[str, Any]:
        with self._lock:
            chosen: Optional[int] = None
            for task_id in self._ready:
                if worker not in self._tasks[task_id].excluded:
                    chosen = task_id
                    break
            if chosen is None:
                # Exclusion is best-effort: a task that excludes every
                # currently connected worker has nobody left to serve it and
                # would wedge the sweep — retrying beats deadlocking.
                for task_id in self._ready:
                    if self._workers <= self._tasks[task_id].excluded:
                        chosen = task_id
                        break
            if chosen is not None:
                self._ready.remove(chosen)
                task = self._tasks[chosen]
                task.state = _LEASED
                task.worker = worker
                task.attempts += 1
                now = time.monotonic()
                if task.first_assigned is None:
                    task.first_assigned = now
                task.deadline = now + self.lease_seconds
                self.stats["assigned"] += 1
                self._journal_append({
                    "kind": "assigned", "key": task.key, "worker": worker,
                })
                message = {"type": "task", "task": chosen, "payload": task.payload}
                if self.checkpoint_every is not None:
                    message["checkpoint_every"] = self.checkpoint_every
                if task.checkpoint is not None:
                    from repro.snapshot import snapshot_document

                    message["checkpoint"] = snapshot_document(task.checkpoint)
                    self.stats["resumed"] += 1
                return message
            if self._outstanding == 0:
                return {"type": "drain"}
            return {"type": "idle", "delay": 0.05}

    def _extend_lease(self, task_id: int, worker: str) -> None:
        with self._lock:
            task = self._tasks[task_id]
            if task.state == _LEASED and task.worker == worker:
                task.deadline = time.monotonic() + self.lease_seconds

    def _parse_checkpoint(self, task_id: int, document: Any) -> Optional[Any]:
        """Validate a shipped snapshot document against its task's spec."""
        from repro.errors import SnapshotError
        from repro.snapshot import parse_document

        try:
            snapshot = parse_document(document, source=f"task {task_id} checkpoint")
        except SnapshotError:
            return None  # corrupt in flight; the old checkpoint stays usable
        if snapshot.spec != RunSpec.from_dict(self._tasks[task_id].payload):
            return None
        return snapshot

    def _persist_checkpoint(self, snapshot: Any) -> None:
        if self.checkpoint_dir is None:
            return
        from repro.snapshot import checkpoint_path, save_snapshot

        try:
            save_snapshot(snapshot, checkpoint_path(self.checkpoint_dir, snapshot.spec))
        except OSError:
            pass  # disk trouble only costs resume granularity, not the sweep

    def _store_checkpoint(self, task_id: int, worker: str, document: Any) -> None:
        snapshot = self._parse_checkpoint(task_id, document)
        if snapshot is None:
            return
        with self._lock:
            task = self._tasks[task_id]
            if task.state != _LEASED or task.worker != worker:
                return  # stale shipment from an expired lease
            task.checkpoint = snapshot
            # A checkpoint proves liveness as well as any heartbeat.
            task.deadline = time.monotonic() + self.lease_seconds
            self.stats["checkpoints"] += 1
            self._journal_append({
                "kind": "checkpointed", "key": task.key, "snapshot": document,
            })
        self._persist_checkpoint(snapshot)

    def _release(self, task_id: int, worker: str, document: Any) -> None:
        """A clean mid-spec lease return (worker preempted, e.g. SIGTERM).

        Unlike ``error`` this refunds the attempt and excludes nobody: the
        worker did nothing wrong, and its final snapshot means the next
        assignee continues from the slice boundary instead of from zero.
        """
        snapshot = self._parse_checkpoint(task_id, document) if document else None
        with self._lock:
            task = self._tasks[task_id]
            if task.state != _LEASED or task.worker != worker:
                return
            if snapshot is not None:
                task.checkpoint = snapshot
                self._journal_append({
                    "kind": "checkpointed", "key": task.key,
                    "snapshot": document,
                })
            task.attempts -= 1
            task.state = _READY
            task.worker = None
            self._ready.append(task.position)
            self.stats["released"] += 1
            self._journal_append({"kind": "released", "key": task.key})
        if snapshot is not None:
            self._persist_checkpoint(snapshot)

    def _complete(self, task_id: int, worker: str, result: Dict[str, Any]) -> None:
        # Parse the payload into a SimResult *before* the task goes terminal:
        # a wrong-shape dict from a version-skewed worker must requeue the
        # spec like any worker error, not crash the sweep host's event loop.
        try:
            parsed = SimResult.from_dict(result)
        except Exception as error:  # noqa: BLE001 - arbitrary payloads
            self._report_error(
                task_id, worker,
                f"worker returned an invalid result payload: "
                f"{describe_error(error)}",
            )
            return
        with self._lock:
            task = self._tasks[task_id]
            if task.state in (_DONE, _FAILED):
                self.stats["duplicates"] += 1  # late result after reassignment
                return
            if task.state == _READY:
                # Expired lease, but the original worker finished after all.
                self._ready.remove(task_id)
            task.checkpoint = None
            self._finish_locked(task, _DONE, parsed)
        if self.checkpoint_dir is not None:
            from repro.snapshot import checkpoint_path

            try:
                checkpoint_path(
                    self.checkpoint_dir, RunSpec.from_dict(task.payload)
                ).unlink(missing_ok=True)
            except OSError:
                pass

    def _report_error(self, task_id: int, worker: str, reason: str) -> None:
        with self._lock:
            task = self._tasks[task_id]
            if task.state != _LEASED or task.worker != worker:
                return  # stale report from a lease that already expired
            # Exclude the reporter so the retry prefers a different worker: a
            # host with a broken environment errors instantly and would
            # otherwise re-poll and burn the spec's whole attempt budget in
            # milliseconds.  Exclusion is best-effort (see _assign), so on a
            # single-worker fleet the retry still lands on the same worker.
            self._requeue_or_fail_locked(task, reason, exclude=True)

    def _disconnect(self, worker: str) -> None:
        with self._lock:
            self._workers.discard(worker)
            leased = [
                task for task in self._tasks
                if task.state == _LEASED and task.worker == worker
            ]
            for task in leased:
                self.stats["disconnects"] += 1
                self._requeue_or_fail_locked(
                    task, f"worker {worker} disconnected mid-spec", exclude=True
                )

    def _monitor_loop(self) -> None:
        interval = min(0.5, self.lease_seconds / 4.0)
        if self.spec_deadline_seconds is not None:
            interval = min(interval, self.spec_deadline_seconds / 4.0)
        if self.sweep_deadline_seconds is not None:
            interval = min(interval, self.sweep_deadline_seconds / 4.0)
        interval = max(interval, 0.02)
        while not self._closed.wait(interval):
            now = time.monotonic()
            with self._lock:
                for task in self._tasks:
                    if task.state in (_DONE, _FAILED):
                        continue
                    if (
                        self.spec_deadline_seconds is not None
                        and task.first_assigned is not None
                        and now - task.first_assigned > self.spec_deadline_seconds
                    ):
                        self._time_out_locked(
                            task,
                            f"spec deadline exceeded "
                            f"({self.spec_deadline_seconds}s since first "
                            f"assignment)",
                        )
                        continue
                    if task.state == _LEASED and task.deadline < now:
                        self.stats["expired"] += 1
                        self._requeue_or_fail_locked(
                            task,
                            f"lease expired on worker {task.worker} "
                            f"(no heartbeat for {self.lease_seconds}s)",
                            exclude=True,
                        )
                if (
                    self.sweep_deadline_seconds is not None
                    and self._started_at is not None
                    and now - self._started_at > self.sweep_deadline_seconds
                ):
                    for task in self._tasks:
                        if task.state not in (_DONE, _FAILED):
                            self._time_out_locked(
                                task,
                                f"sweep budget exhausted "
                                f"({self.sweep_deadline_seconds}s)",
                            )

    def _time_out_locked(self, task: _Task, reason: str) -> None:
        """Terminally fail a wedged task so the sweep degrades gracefully.

        Not journaled: deadlines are session policy, not durable facts about
        the spec — a restarted broker (perhaps with a bigger budget) should
        be free to retry it.  A late result from the still-running worker is
        dropped as a duplicate, keeping the executor's yield-once contract.
        """
        if task.state == _READY:
            try:
                self._ready.remove(task.position)
            except ValueError:
                pass
        task.errors.append(reason)
        task.timed_out = True
        self.stats["timed_out"] += 1
        self._finish_locked(task, _FAILED, journal=False)

    def _requeue_or_fail_locked(
        self, task: _Task, reason: str, exclude: bool
    ) -> None:
        task.errors.append(reason)
        if exclude and task.worker is not None:
            task.excluded.add(task.worker)
            self._journal_append({
                "kind": "excluded", "key": task.key,
                "worker": task.worker, "reason": reason,
            })
        if task.attempts >= self.max_attempts:
            self._finish_locked(task, _FAILED)
        else:
            task.state = _READY
            task.worker = None
            self._ready.append(task.position)
            self.stats["requeued"] += 1

    def _finish_locked(
        self,
        task: _Task,
        state: str,
        result: Optional[SimResult] = None,
        journal: bool = True,
    ) -> None:
        task.state = state
        task.worker = None
        self._outstanding -= 1
        if state == _DONE:
            if journal:
                self._journal_append({
                    "kind": "completed", "key": task.key,
                    "result": result.to_dict() if result is not None else None,
                })
            self.stats["completed"] += 1
            self._events.put(("result", task.position, result))
        else:
            if journal:
                self._journal_append({
                    "kind": "failed", "key": task.key,
                    "reasons": list(task.errors),
                })
            self.stats["failed"] += 1
            self._events.put(("failed", task.position, "; ".join(task.errors)))


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

    The checkpointed sibling of :func:`~repro.runner.executor._execute_payload`
    — spec dict in, result dict out — plus mid-spec resume from a shipped
    checkpoint, periodic ``checkpoint`` messages back to the broker, and
    cooperative preemption (:class:`~repro.snapshot.ExecutionPreempted`
    propagates to the caller, which turns it into a ``release``).
    """
    from repro.errors import SnapshotError
    from repro.snapshot import (
        execute_with_checkpoints,
        parse_document,
        snapshot_document,
    )

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

    result = execute_with_checkpoints(
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
                # Task ids are opaque to the worker and echoed verbatim: the
                # sweep broker uses grid positions (ints), the multi-tenant
                # service uses "job-id/position" strings.
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
# Local cluster harness
# ---------------------------------------------------------------------------
class LocalCluster:
    """Broker-facing fleet of ``repro worker`` subprocesses on this host.

    The test/CI harness for the real wire path: each worker is a genuine
    ``python -m repro worker --connect`` process, so everything — handshake,
    leases, heartbeats, retry, drain — is exercised over actual sockets.
    ``faults`` injects a per-worker :data:`FAULT_ENV` mode (None = healthy).
    """

    def __init__(
        self,
        host: str,
        port: int,
        workers: int,
        faults: Optional[Sequence[Optional[str]]] = None,
        heartbeat: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("LocalCluster needs at least one worker")
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        command = [sys.executable, "-m", "repro", "worker",
                   "--connect", f"{host}:{port}"]
        if heartbeat is not None:
            command += ["--heartbeat", str(heartbeat)]
        self.procs: List[subprocess.Popen] = []
        for index in range(workers):
            worker_env = dict(env)
            fault = faults[index] if faults and index < len(faults) else None
            if fault:
                worker_env[FAULT_ENV] = fault
            self.procs.append(
                subprocess.Popen(command, env=worker_env,
                                 stdout=subprocess.DEVNULL)
            )

    def alive_count(self) -> int:
        return sum(1 for proc in self.procs if proc.poll() is None)

    def kill(self, index: int) -> None:
        """SIGKILL one worker (fault drills)."""
        self.procs[index].kill()
        self.procs[index].wait()

    def close(self, timeout: float = 5.0) -> None:
        """Wait briefly for workers to drain, then terminate stragglers."""
        deadline = time.monotonic() + timeout
        for proc in self.procs:
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

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
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
    """Run specs through a TCP broker feeding pull-based ``repro worker``s.

    Implements the ``run_iter`` completion-order contract, so it drops into
    ``Runner`` (cache, ``SpecProgress`` streaming, ``--progress``) exactly
    like the serial and process-pool executors.  Per-spec failures are
    retried up to ``max_attempts`` assignments with the crashed/timed-out
    worker excluded; specs that still fail surface as one
    :class:`~repro.errors.ExecutionError` *after* every successful result has
    been yielded.  ``last_stats`` holds the final broker counters of the most
    recent sweep (assigned/completed/failed/requeued/expired/...).
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
        payloads = [spec.to_dict() for spec in specs]
        broker = Broker(
            payloads,
            host=self.host,
            port=self.port,
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            journal_dir=self.journal_dir,
            spec_deadline_seconds=self.spec_deadline,
            sweep_deadline_seconds=self.sweep_deadline,
        ).start()
        cluster: Optional[WorkerSupervisor] = None
        failures: List[Tuple[int, str]] = []
        try:
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

            def watchdog() -> None:
                # Abort only in pure-local mode (owned pool, no external
                # joiners expected): there, a pool that gave up — every slot
                # drained, abandoned, or circuit-broken, none awaiting
                # respawn — means nobody can ever serve the sweep.  With
                # external workers expected — present, or still to come —
                # the sweep must keep waiting.
                if (
                    cluster is not None
                    and not self.external
                    and cluster.gave_up()
                    and broker.worker_count() == 0
                ):
                    broker.abort(
                        "every local worker process has exited "
                        "and no external workers are connected"
                    )

            for kind, position, payload in broker.events(poll=watchdog):
                if kind == "result":
                    yield position, payload
                else:
                    failures.append((position, payload))
        finally:
            if cluster is not None:
                cluster.close()
            broker.close()
            self.last_stats = dict(broker.stats)
        if failures:
            timed_out_at = broker.timed_out_positions()
            timed_out = [
                (specs[position], reason)
                for position, reason in failures if position in timed_out_at
            ]
            plain = [
                (specs[position], reason)
                for position, reason in failures if position not in timed_out_at
            ]
            if timed_out:
                raise partial_sweep_error(plain, timed_out, len(specs))
            raise failures_error(plain, len(specs))

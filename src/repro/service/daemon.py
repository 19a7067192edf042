"""The sweep service daemon: worker TCP plane + HTTP plane + recovery.

:class:`ServiceBroker` speaks the same JSON-lines wire protocol as the
single-sweep :class:`~repro.runner.distributed.Broker` — ``hello`` /
``welcome``, ``next`` / ``task`` / ``idle``, ``heartbeat``, ``result``,
``error``, ``checkpoint``, ``release`` — so stock ``repro worker
--connect`` processes serve it unchanged.  The differences are exactly the
multi-tenant ones: task state lives in a shared
:class:`~repro.service.jobstore.JobStore` instead of one task list, task
ids are ``job-id/position`` strings, a bad shared token is answered with a
``reject`` message, and the broker never drains — the service outlives any
one job, so idle workers keep polling (pools should run ``--redial``).

:class:`SweepService` composes the store, both planes, and the
write-ahead journal; constructing it on the journal/cache directories of
a SIGKILL'd daemon replays every live job before the listeners open.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.runner.cache import ResultCache
from repro.runner.distributed import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    Listener,
    _read,
    _send,
    connect_host,
    parse_address,
)
from repro.runner.journal import ServiceJournal
from repro.service.httpapi import ServiceHTTPServer
from repro.service.jobstore import JobStore, parse_task_id


class ServiceBroker:
    """Worker-facing TCP plane of the service: sockets in, JobStore calls out.

    Thread layout mirrors the single-sweep broker: one acceptor, one
    handler per worker connection, one lease monitor.  All task-state
    logic lives in the store; this class only moves messages.
    """

    def __init__(
        self,
        store: JobStore,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ) -> None:
        self._store = store
        self.host = host
        self.port = port
        self.token = token
        self._closed = threading.Event()
        self._listener = Listener(
            (host, port), self._serve, "service worker plane"
        )
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "ServiceBroker":
        self.host, self.port = self._listener.start()
        self._monitor.start()
        return self

    def close(self) -> None:
        self._closed.set()
        self._listener.close()
        if self._monitor.is_alive():
            self._monitor.join(timeout=2.0)

    # ----------------------------------------------------------- plumbing
    def _monitor_loop(self) -> None:
        interval = max(0.02, min(0.5, self._store.lease_seconds / 4.0))
        while not self._closed.wait(interval):
            self._store.expire_leases()

    def _serve(self, conn: socket.socket) -> None:
        conn.settimeout(max(self._store.lease_seconds * 2.0, 10.0))
        write_lock = threading.Lock()
        worker: Optional[str] = None
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
                        if (
                            self.token is not None
                            and message.get("token") != self.token
                        ):
                            _send(conn, write_lock, {
                                "type": "reject",
                                "reason": "invalid or missing service token",
                            })
                            break
                        requested = str(message.get("worker") or "")
                        worker = self._store.claim_worker(
                            requested or "anon-worker"
                        )
                        _send(conn, write_lock, {
                            "type": "welcome",
                            "lease_seconds": self._store.lease_seconds,
                            "worker": worker,
                        })
                    elif worker is None:
                        continue  # no completed handshake: ignore the line
                    elif kind == "next":
                        _send(conn, write_lock, self._store.assign(worker))
                    elif kind in ("heartbeat", "result", "error",
                                  "checkpoint", "release"):
                        parsed = parse_task_id(message.get("task"))
                        if parsed is None:
                            continue  # corrupt or foreign task id; ignore
                        job_id, position = parsed
                        if kind == "heartbeat":
                            self._store.heartbeat(job_id, position, worker)
                        elif kind == "result":
                            self._store.complete(
                                job_id, position, worker, message["result"]
                            )
                        elif kind == "checkpoint":
                            self._store.checkpoint(
                                job_id, position, worker,
                                message.get("snapshot"),
                            )
                        elif kind == "release":
                            self._store.release(
                                job_id, position, worker,
                                message.get("snapshot"),
                            )
                        else:
                            self._store.error(
                                job_id, position, worker,
                                str(message.get("error")),
                            )
                except (AttributeError, KeyError, TypeError, ValueError):
                    # Structurally invalid message: drop the line, keep the
                    # worker's connection — killing the handler would cost a
                    # lease and an exclusion for one corrupt line.
                    continue
        except OSError:
            pass
        finally:
            if worker is not None:
                self._store.drop_worker(worker)


class SweepService:
    """One ``repro serve`` daemon: JobStore + TCP plane + HTTP plane.

    ``journal_dir``/``cache_dir`` opt into durability: constructing the
    service on a killed daemon's directories replays the journal and
    resumes every live job before either listener opens.
    """

    def __init__(
        self,
        worker_host: str = "127.0.0.1",
        worker_port: int = 0,
        http_host: str = "127.0.0.1",
        http_port: int = 0,
        journal_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        token: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        journal = (
            ServiceJournal(journal_dir) if journal_dir is not None else None
        )
        self.store = JobStore(
            cache=cache,
            journal=journal,
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            checkpoint_every=checkpoint_every,
        )
        self.recovered_jobs = self.store.recover()
        self.broker = ServiceBroker(
            self.store, worker_host, worker_port, token=token
        )
        self.http = ServiceHTTPServer(
            self.store, http_host, http_port, token=token
        )
        self._started_at: Optional[float] = None

    def start(self) -> "SweepService":
        self.broker.start()
        try:
            self.http.start()
        except BaseException:
            self.broker.close()
            raise
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        # Answer held long-polls first, so the HTTP plane's handler threads
        # finish at once instead of sitting out their ``wait``.
        self.store.shutdown()
        self.http.close()
        self.broker.close()
        self.store.close_journal()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def worker_address(self) -> Tuple[str, int]:
        return self.broker.address

    @property
    def http_url(self) -> str:
        host, port = self.http.address
        return f"http://{connect_host(host)}:{port}"

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at


def run_service(
    bind: str = "127.0.0.1:0",
    http: str = "127.0.0.1:0",
    journal_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    token: Optional[str] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    checkpoint_every: Optional[int] = None,
) -> int:
    """Foreground driver behind ``repro serve``: run until SIGTERM/SIGINT.

    Prints greppable address lines to stderr on startup (the CLI smoke
    tests and ops scripts parse them) and a stats summary on shutdown.
    """
    import signal
    import sys

    worker_host, worker_port = parse_address(bind)
    http_host, http_port = parse_address(http)
    service = SweepService(
        worker_host=worker_host,
        worker_port=worker_port,
        http_host=http_host,
        http_port=http_port,
        journal_dir=journal_dir,
        cache_dir=cache_dir,
        token=token,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        checkpoint_every=checkpoint_every,
    ).start()
    host, port = service.worker_address
    print(
        f"serve: worker plane on {host}:{port} "
        f"(join: python -m repro worker --connect "
        f"{connect_host(host)}:{port} --redial 3600"
        f"{' --token <token>' if token else ''})",
        file=sys.stderr, flush=True,
    )
    print(f"serve: http api on {service.http_url}", file=sys.stderr, flush=True)
    if journal_dir is not None:
        print(
            f"serve: journal in {journal_dir} "
            f"(recovered {service.recovered_jobs} job(s))",
            file=sys.stderr, flush=True,
        )
    if cache_dir is not None:
        print(f"serve: result cache in {cache_dir}", file=sys.stderr, flush=True)
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    stats: Dict[str, Any] = service.store.stats_snapshot()
    service_stats = stats["service"]
    print(
        f"serve: stopped after {service.uptime_seconds():.1f}s — "
        f"{service_stats['jobs_submitted']} job(s) submitted, "
        f"{service_stats['completed']} spec(s) completed, "
        f"{service_stats['short_circuited']} short-circuited, "
        f"{service_stats['coalesced']} coalesced",
        file=sys.stderr, flush=True,
    )
    return 0

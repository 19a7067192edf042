"""HTTP/JSON plane of the sweep service (stdlib ``http.server``, no deps).

Routes::

    GET    /healthz              liveness (always unauthenticated)
    GET    /stats                service counters, queue depth, worker count
    GET    /jobs                 summaries of every job, submission order
    POST   /jobs                 submit a SweepSpec -> job summary (201)
    GET    /jobs/<id>            summary + per-spec progress
    GET    /jobs/<id>/results    SweepResult-shaped JSON (streamed), runs
                                 sorted by position; ``?partial=1`` returns
                                 whatever has landed on a still-running job
                                 instead of 409
    GET    /jobs/<id>/results?after=N&wait=S
                                 long-poll: waits up to S seconds (capped at
                                 MAX_WAIT_SECONDS) until a run beyond the
                                 first N has landed or the job is terminal,
                                 then returns only the runs after the first
                                 N, in landing order (implies ``partial``)
    DELETE /jobs/<id>            cancel (404 unknown, 409 already terminal)

Auth: when the service has a token, every route but ``/healthz`` requires
``Authorization: Bearer <token>`` (or ``X-Repro-Token: <token>``); the
same token guards the worker TCP plane.  Payloads deliberately use a
``state`` field, never ``type``/``kind`` — those tag the worker wire
protocol and the journal, and keeping the vocabularies disjoint lets the
PROTO001 closure lint hold them to the wire contract.

Connections are accepted by the same :class:`~repro.runner.distributed.Listener`
as the worker plane, so stopping the daemon wakes the acceptor at once.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.runner.distributed import Listener
from repro.service.jobstore import TERMINAL_JOB_STATES, JobStore

#: Upper bound on one long-poll's ``wait``.
MAX_WAIT_SECONDS = 60.0


class _ServiceHTTPRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    #: Close-delimited responses: the results endpoint streams JSON with no
    #: Content-Length, which HTTP/1.0 framing makes unambiguous.
    protocol_version = "HTTP/1.0"
    #: Buffered replies: the connection has TCP_NODELAY, so every unbuffered
    #: write (iterencode yields one per JSON token) would be its own packet.
    wbufsize = 1 << 16

    # The default handler logs every request line to stderr; the daemon's
    # stderr is its operational log and per-poll noise would swamp it.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def _store(self) -> JobStore:
        return self.server.store  # type: ignore[attr-defined]

    @property
    def _token(self) -> Optional[str]:
        return self.server.token  # type: ignore[attr-defined]

    # ------------------------------------------------------------- replies
    def _json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_json(self, payload: Dict[str, Any]) -> None:
        """Stream a (possibly large) document chunk by chunk.

        ``iterencode`` never materializes the full serialization, so a
        results document with thousands of runs goes out in bounded memory;
        the connection close delimits the body.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        for chunk in json.JSONEncoder().iterencode(payload):
            self.wfile.write(chunk.encode("utf-8"))

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    # ---------------------------------------------------------------- auth
    def _authorized(self, path: str) -> bool:
        if self._token is None or path == "/healthz":
            return True
        header = self.headers.get("Authorization", "")
        if header == f"Bearer {self._token}":
            return True
        return self.headers.get("X-Repro-Token") == self._token

    def _deny(self) -> None:
        self._error(
            401,
            "unauthorized: pass 'Authorization: Bearer <token>' or "
            "'X-Repro-Token: <token>'",
        )

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        path = url.path.rstrip("/") or "/"
        if not self._authorized(path):
            self._deny()
            return
        if path == "/healthz":
            self._json(200, {"status": "ok"})
            return
        if path == "/stats":
            self._json(200, self._store.stats_snapshot())
            return
        if path == "/jobs":
            self._json(200, {"jobs": self._store.list_jobs()})
            return
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "jobs":
            detail = self._store.job_detail(parts[1])
            if detail is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            self._json(200, detail)
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "results":
            self._get_results(parts[1], parse_qs(url.query))
            return
        self._error(404, f"no such route: GET {path}")

    def _get_results(self, job_id: str, query: Dict[str, Any]) -> None:
        if "after" in query:
            self._long_poll_results(job_id, query)
            return
        summary = self._store.job_summary(job_id)
        if summary is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        partial = query.get("partial", ["0"])[-1] not in ("0", "", "false")
        if summary["state"] not in TERMINAL_JOB_STATES and not partial:
            self._error(
                409,
                f"job {job_id!r} is still {summary['state']}; poll "
                f"GET /jobs/{job_id} or pass ?partial=1 for interim results",
            )
            return
        payload = self._store.job_results(job_id)
        if payload is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._stream_json(payload)

    def _long_poll_results(self, job_id: str, query: Dict[str, Any]) -> None:
        try:
            after = int(query["after"][-1])
            wait = min(float(query.get("wait", ["0"])[-1]), MAX_WAIT_SECONDS)
        except ValueError:
            after, wait = -1, -1.0
        if not (after >= 0 and wait >= 0):  # also rejects a NaN wait
            self._error(400, "?after= and ?wait= must be non-negative numbers")
            return
        payload = self._store.wait_for_results(job_id, after, wait)
        if payload is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._stream_json(payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path.rstrip("/")
        if not self._authorized(path):
            self._deny()
            return
        if path != "/jobs":
            self._error(404, f"no such route: POST {path}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("the request body must be a JSON object")  # repro: noqa[ERR001] -- control flow: caught just below and mapped to a 400 reply
        except ValueError as error:
            self._error(400, f"invalid JSON body: {error}")
            return
        try:
            job = self._submit(payload)
        except Exception as error:  # noqa: BLE001 - client-fault -> 400
            self._error(400, f"invalid submission: {error}")
            return
        self._json(201, job)

    def _submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.runner.spec import SweepSpec

        document = payload.get("sweep", payload)
        sweep = SweepSpec.from_dict(document)
        priority = payload.get("priority", 1)
        name = payload.get("name")
        return self._store.submit(
            sweep,
            name=str(name) if name is not None else None,
            priority=priority,
        )

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path.rstrip("/")
        if not self._authorized(path):
            self._deny()
            return
        parts = [part for part in path.split("/") if part]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, f"no such route: DELETE {path}")
            return
        cancelled = self._store.cancel(parts[1])
        if cancelled is not None:
            self._json(200, cancelled)
            return
        summary = self._store.job_summary(parts[1])
        if summary is None:
            self._error(404, f"unknown job {parts[1]!r}")
        else:
            self._error(
                409,
                f"job {parts[1]!r} is already {summary['state']}; "
                f"nothing to cancel",
            )


class ServiceHTTPServer:
    """Threaded HTTP listener bound to one JobStore; start/close lifecycle.

    One request per connection (HTTP/1.0), each on its own handler thread.
    Closing shuts live connections down for reading only: an idle client
    is cut off at once, while a handler mid-reply still finishes it.
    """

    def __init__(
        self,
        store: JobStore,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ) -> None:
        self.store = store
        self.token = token
        self.host = host
        self.port = port
        self._listener = Listener(
            (host, port), self._handle, "service http api",
            sever=socket.SHUT_RD,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def start(self) -> "ServiceHTTPServer":
        self.host, self.port = self._listener.start()
        return self

    def close(self) -> None:
        self._listener.close()

    def _handle(self, conn: socket.socket) -> None:
        _ServiceHTTPRequestHandler(conn, conn.getpeername(), self)

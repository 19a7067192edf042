"""Client side of the sweep service: HTTP wrapper + submitting executor.

:class:`ServiceClient` is a thin JSON-over-HTTP wrapper around the daemon's
API (stdlib ``urllib`` — the service stack adds no dependencies anywhere).
:class:`ServiceExecutor` adapts it to the executor contract, so ``repro run
<experiment> --submit URL`` flows through the normal
:class:`~repro.runner.runner.Runner` path: the local result cache filters
the grid first, the run manifest records completions, and the results that
come back are bit-identical to a local
:class:`~repro.runner.executor.SerialExecutor` sweep because every spec is
executed by the same deterministic :func:`~repro.runner.executor.execute_spec`
on some worker.

An abandoned submission is withdrawn: if the executor's generator is closed
before the job finishes (Ctrl-C, a failure in another part of the run), it
cancels the job so the service stops spending worker time on it.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ExecutionError, ServiceError
from repro.machine.results import SimResult
from repro.runner.executor import _ExecutorBase, failures_error
from repro.runner.spec import RunSpec, SweepSpec

#: Job states the service reports as terminal (mirrors
#: ``repro.service.jobstore.TERMINAL_JOB_STATES``; duplicated here so the
#: client package does not import the daemon package).
_TERMINAL = ("completed", "failed", "cancelled")


class ServiceClient:
    """JSON HTTP client for one ``repro serve`` daemon."""

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        if not url.startswith(("http://", "https://")):
            raise ConfigurationError(
                f"service url must start with http:// or https://, got {url!r}"
            )
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout

    # ------------------------------------------------------------ transport
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            self.url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as resp:
                return json.load(resp)
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = str(json.load(error).get("error", ""))
            except ValueError:
                pass
            raise ServiceError(
                f"{method} {path} -> {error.code} {error.reason}"
                + (f": {detail}" if detail else "")
            )
        except (OSError, ValueError) as error:
            raise ServiceError(
                f"cannot reach sweep service at {self.url}: {error}"
            )

    # ----------------------------------------------------------------- api
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/jobs")["jobs"])

    def submit(
        self,
        sweep: SweepSpec,
        name: Optional[str] = None,
        priority: int = 1,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "sweep": sweep.to_dict(), "priority": priority,
        }
        if name is not None:
            payload["name"] = name
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def results(
        self,
        job_id: str,
        partial: bool = False,
        after: Optional[int] = None,
        wait: float = 0.0,
    ) -> Dict[str, Any]:
        """The job's results; with ``after``, a long-poll for new ones.

        A long-poll waits up to ``wait`` seconds on the service for runs
        beyond the first ``after`` to land, and returns only those.
        """
        query: Dict[str, Any] = {}
        if partial:
            query["partial"] = 1
        if after is not None:
            query.update(after=after, wait=wait)
        suffix = f"?{urllib.parse.urlencode(query)}" if query else ""
        return self._request(
            "GET", f"/jobs/{job_id}/results{suffix}",
            timeout=self.timeout + wait,
        )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")


class ServiceExecutor(_ExecutorBase):
    """Executor that submits the sweep to a ``repro serve`` daemon.

    Satisfies the ``run_iter`` contract — ``(position, result)`` pairs in
    completion order — by long-polling the job's results: each request
    waits on the service (at most ``poll_seconds``) until new runs land and
    returns only those, so each result is yielded the moment it lands and
    local progress hooks and manifest recording stream exactly as they do
    for any other executor.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        name: Optional[str] = None,
        priority: int = 1,
        poll_seconds: float = 0.5,
        timeout: float = 30.0,
    ) -> None:
        if poll_seconds <= 0:
            raise ConfigurationError("poll_seconds must be positive")
        self.client = ServiceClient(url, token=token, timeout=timeout)
        self.name = name
        self.priority = priority
        self.poll_seconds = poll_seconds
        #: Final job summary of the last ``run_iter`` (CLI summary line).
        self.last_job: Optional[Dict[str, Any]] = None

    def run_iter(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[int, SimResult]]:
        if not specs:
            return
        sweep = SweepSpec(name=self.name or "submitted", specs=tuple(specs))
        by_key = {spec.key(): index for index, spec in enumerate(specs)}
        job_id = str(self.client.submit(
            sweep, name=self.name, priority=self.priority
        )["job"])
        yielded: set = set()
        landed = 0
        finished = False
        try:
            while True:
                asked = time.monotonic()
                # ``partial`` as well: an older daemon ignores ``after`` and
                # ``wait`` but still answers with every run landed so far.
                payload = self.client.results(
                    job_id, partial=True, after=landed,
                    wait=self.poll_seconds,
                )
                landed += len(payload["runs"])
                fresh = False
                for run in payload["runs"]:
                    position = by_key.get(RunSpec.from_dict(run["spec"]).key())
                    if position is None or position in yielded:
                        continue
                    yielded.add(position)
                    fresh = True
                    yield position, SimResult.from_dict(run["result"])
                state = str(payload["state"])
                if state in _TERMINAL:
                    finished = True
                    self.last_job = self.client.job(job_id)
                    if state == "cancelled":
                        raise ExecutionError(
                            f"job {job_id} was cancelled on the service "
                            f"before it finished"
                        )
                    failures = [
                        (RunSpec.from_dict(entry["spec"]),
                         str(entry["reason"]))
                        for entry in payload["failures"]
                    ]
                    if failures:
                        raise failures_error(failures, len(specs))
                    return
                if not fresh:
                    # Back early with nothing new: the daemon ignored
                    # ``wait`` or is stopping.  Sleep out the rest of the
                    # wait so this loop can never spin.
                    time.sleep(
                        max(0.0, self.poll_seconds - (time.monotonic() - asked))
                    )
        finally:
            if not finished:
                # Abandoned mid-flight (generator closed, transport error):
                # withdraw the job so workers stop spending time on it.
                try:
                    self.last_job = self.client.cancel(job_id)
                except ServiceError:
                    pass

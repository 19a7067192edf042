"""Job and task state of the sweep fabric: its one lease state machine.

A *job* is one :class:`~repro.runner.spec.SweepSpec`: a named, prioritized
batch of specs.  :class:`JobStore` owns all job and task state under one
lock, and is the only code that assigns, heartbeats, checkpoints,
releases, completes, errors and requeues-or-fails a task.  Workers reach
it through the worker plane (:class:`~repro.service.daemon.ServiceBroker`)
in two deployments:

* ``repro serve`` — a multi-tenant store whose jobs share one worker pool;
  it outlives every job, so it never answers ``drain``;
* ``repro run --distributed N`` / ``--bind`` — an embedded ``drain`` store
  running the sweep as its one job (:meth:`JobStore.submit_sweep`); its
  workers are answered ``drain`` once that job is finished.

Per job it provides:

* **fair-share assignment** across jobs via
  :class:`~repro.service.scheduler.FairShareScheduler` — deterministic
  stride interleaving weighted by per-job priority;
* **per-job retry budgets and worker exclusions** — one tenant's crashing
  specs never exclude workers from another tenant's job;
* **broker-side cache short-circuit** — a submitted spec whose sha256
  :meth:`~repro.runner.spec.RunSpec.key` is already in the service's
  :class:`~repro.runner.cache.ResultCache` completes instantly, never
  reaching a worker (``stats["short_circuited"]``);
* **cross-job coalescing** — a spec already in flight for another job is
  not queued twice; followers adopt the head's result on completion
  (``stats["coalesced"]``), and a failed or cancelled head promotes the
  next follower with its *own* job's fresh attempt budget;
* **cancellation** — queued specs are dropped immediately, leased specs
  are refunded exactly once (``stats["refunded"]``) and go terminal; a
  straggler worker's late result is still banked in the cache and
  completes any successor chain for the key;
* **deadlines** — a spec deadline (counted from a spec's first assignment)
  and a sweep budget (counted from submission) terminally fail wedged
  specs (``stats["timed_out"]``); a late result is dropped;
* **checkpoint persistence** — with ``checkpoint_dir`` (a run's
  ``checkpoints/``, or the daemon's ``<journal dir>/checkpoints/``), shipped
  snapshots are saved there, adopted from it at submission, and deleted on
  completion: the one home of mid-spec state;
* **durability** — every job and task transition is written ahead to a
  :class:`~repro.runner.journal.ServiceJournal`, so a SIGKILL'd daemon
  restarted on the same ``--journal``/``--cache`` directories resumes
  every live job (see :meth:`JobStore.recover`);
* **long-polled results** — a condition over the store lock wakes
  :meth:`JobStore.wait_for_results` the moment a task goes terminal, so
  clients receive each result as it lands, exactly once.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.machine.results import SimResult
from repro.runner.cache import ResultCache
from repro.runner.distributed import DEFAULT_LEASE_SECONDS, DEFAULT_MAX_ATTEMPTS
from repro.runner.executor import describe_error
from repro.runner.journal import ServiceJournal, TaskReplay
from repro.runner.spec import RunSpec, SweepSpec
from repro.service.scheduler import FairShareScheduler

#: Job lifecycle states (the ``state`` field of every job summary).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_COMPLETED = "completed"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: Task states; ``cancelled`` marks specs dropped by a job cancellation.
_READY, _LEASED, _DONE, _FAILED, _CANCELLED = (
    "ready", "leased", "done", "failed", "cancelled"
)

_TERMINAL_TASK_STATES = (_DONE, _FAILED, _CANCELLED)
TERMINAL_JOB_STATES = (JOB_COMPLETED, JOB_FAILED, JOB_CANCELLED)

#: Job id of the sweep an embedded store runs.
SWEEP_JOB = "sweep"


def format_task_id(job_id: str, position: int) -> str:
    """Wire task id: ``<job-id>/<position>`` (workers echo it opaquely)."""
    return f"{job_id}/{position}"


def parse_task_id(task_id: Any) -> Optional[Tuple[str, int]]:
    """Parse a wire task id back into ``(job_id, position)``; None if foreign."""
    if not isinstance(task_id, str):
        return None
    job_id, separator, position = task_id.rpartition("/")
    if not separator or not job_id or not position.isdigit():
        return None
    return job_id, int(position)


class _Task:
    __slots__ = ("position", "payload", "state", "attempts", "excluded",
                 "worker", "deadline", "errors", "checkpoint", "key",
                 "first_assigned", "timed_out")

    def __init__(self, position: int, spec: RunSpec) -> None:
        self.position = position
        self.payload = spec.to_dict()
        self.state = _READY
        self.attempts = 0
        self.excluded: Set[str] = set()
        self.worker: Optional[str] = None
        self.deadline = 0.0
        self.errors: List[str] = []
        #: Latest shipped :class:`~repro.snapshot.Snapshot`, if any; attached
        #: to the next assignment so a replacement worker resumes mid-spec.
        self.checkpoint: Optional[Any] = None
        #: Spec content key (sha256): journal records, checkpoint files and
        #: coalescing chains are keyed by it, so they survive grid renumbering.
        self.key = spec.key()
        #: Monotonic time of the *first* assignment — the spec deadline
        #: measures total time-in-flight, not per-attempt time.
        self.first_assigned: Optional[float] = None
        #: True when a deadline, not worker errors, failed this task; the
        #: sweep host reports it in a PartialSweepError.
        self.timed_out = False


class Job:
    """One tenant's submitted sweep: tasks, queue, results, counters."""

    def __init__(
        self, job_id: str, name: str, priority: int, sweep: SweepSpec
    ) -> None:
        self.job_id = job_id
        self.name = name
        self.priority = priority
        self.sweep = sweep
        self.state = JOB_QUEUED
        self.tasks = [
            _Task(position, spec) for position, spec in enumerate(sweep.specs)
        ]
        #: Positions ready for assignment (excludes coalesced followers).
        self.ready: Deque[int] = deque()
        self.outstanding = len(self.tasks)
        self.results: Dict[int, SimResult] = {}
        #: Positions of ``results`` in the order they landed (long-polls).
        self.landed: List[int] = []
        self.failures: Dict[int, str] = {}
        #: Positions answered from the result cache (never reached a worker).
        self.cached: Set[int] = set()
        self.short_circuited = 0
        self.coalesced = 0
        self.refunded = 0
        # Host-side wall clock for display only; service/ is outside the
        # sim-core packages, so DET001's path scope exempts it.
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        #: Monotonic submission time: the sweep budget counts from here.
        self.started = time.monotonic()

    def counts(self) -> Dict[str, int]:
        counts = {"pending": 0, "leased": 0, "done": 0,
                  "failed": 0, "cancelled": 0}
        for task in self.tasks:
            if task.state == _READY:
                counts["pending"] += 1
            elif task.state == _LEASED:
                counts["leased"] += 1
            elif task.state == _DONE:
                counts["done"] += 1
            elif task.state == _FAILED:
                counts["failed"] += 1
            else:
                counts["cancelled"] += 1
        return counts

    def summary(self) -> Dict[str, Any]:
        counts = self.counts()
        return {
            "job": self.job_id,
            "name": self.name,
            "state": self.state,
            "priority": self.priority,
            "total": len(self.tasks),
            "pending": counts["pending"],
            "leased": counts["leased"],
            "done": counts["done"],
            "failed": counts["failed"],
            "cancelled": counts["cancelled"],
            "short_circuited": self.short_circuited,
            "coalesced": self.coalesced,
            "refunded": self.refunded,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }

    def detail(self) -> Dict[str, Any]:
        payload = self.summary()
        payload["specs"] = [
            {
                "position": task.position,
                "spec": task.payload,
                "state": task.state,
                "attempts": task.attempts,
                "cached": task.position in self.cached,
                "errors": list(task.errors),
            }
            for task in self.tasks
        ]
        return payload

    def results_payload(self, after: Optional[int] = None) -> Dict[str, Any]:
        """SweepResult-shaped document for ``GET /jobs/<id>/results``.

        Runs are sorted by position; with ``after``, only the runs that
        landed after the first ``after`` ones, in landing order.
        """
        positions = sorted(self.results) if after is None else self.landed[after:]
        runs = [
            {
                "spec": self.tasks[position].payload,
                "result": self.results[position].to_dict(),
                "cached": position in self.cached,
            }
            for position in positions
        ]
        failures = [
            {"spec": self.tasks[position].payload, "reason": reason}
            for position, reason in sorted(self.failures.items())
        ]
        return {
            "job": self.job_id,
            "name": self.name,
            "state": self.state,
            "sweep": self.sweep.name,
            "total": len(self.tasks),
            "runs": runs,
            "failures": failures,
        }


class JobStore:
    """All job/task state of one sweep service or sweep host, under one lock.

    The TCP plane (:class:`~repro.service.daemon.ServiceBroker`) calls
    :meth:`claim_worker` / :meth:`assign` / :meth:`complete` /
    :meth:`error` / :meth:`heartbeat` / :meth:`checkpoint` /
    :meth:`release` / :meth:`drop_worker`, and its monitor thread calls
    :meth:`expire_leases`; the HTTP plane calls :meth:`submit` /
    :meth:`cancel` and the query methods, and long-polls with
    :meth:`wait_for_results`.  A sweep host submits with
    :meth:`submit_sweep`, waits with :meth:`wait_for_landed`, and may
    :meth:`abort` its job.

    ``drain`` makes the store answer ``drain`` to idle workers once every
    job is terminal, so an embedded sweep's workers leave with its one job.
    The service leaves it off: it outlives every job.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        journal: Optional[ServiceJournal] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        spec_deadline: Optional[float] = None,
        sweep_deadline: Optional[float] = None,
        drain: bool = False,
    ) -> None:
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                "checkpoint_every must be a positive event count"
            )
        if spec_deadline is not None and spec_deadline <= 0:
            raise ConfigurationError("spec_deadline must be positive")
        if sweep_deadline is not None and sweep_deadline <= 0:
            raise ConfigurationError("sweep_deadline must be positive")
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.spec_deadline = spec_deadline
        self.sweep_deadline = sweep_deadline
        self.drain = drain
        self._journal = journal
        self._lock = threading.Lock()
        #: Notified whenever a task goes terminal or a worker leaves, and on
        #: :meth:`shutdown`.
        self._changed = threading.Condition(self._lock)
        self._shut_down = False
        self._jobs: Dict[str, Job] = {}  # insertion order = submission order
        self._scheduler = FairShareScheduler()
        #: Spec key -> [(job_id, position), ...]: the head entry is the one
        #: queued/leased copy of the spec; the rest are coalesced followers.
        self._inflight: Dict[str, List[Tuple[str, int]]] = {}
        self._workers: Set[str] = set()
        self._counter = 0
        self.stats: Dict[str, int] = {
            "jobs_submitted": 0, "jobs_completed": 0, "jobs_failed": 0,
            "jobs_cancelled": 0, "assigned": 0, "completed": 0, "failed": 0,
            "requeued": 0, "expired": 0, "disconnects": 0, "duplicates": 0,
            "checkpoints": 0, "released": 0, "resumed": 0, "replayed": 0,
            "timed_out": 0, "short_circuited": 0, "coalesced": 0,
            "refunded": 0,
        }

    # ------------------------------------------------------------- journal
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
                f"journal write failed ({error}); continuing without "
                f"crash recovery",
                JournalWarning,
                stacklevel=2,
            )
            try:
                self._journal.close()
            finally:
                self._journal = None

    def close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def shutdown(self) -> None:
        """Answer every held long-poll now, and every later one at once."""
        with self._lock:
            self._shut_down = True
            self._changed.notify_all()

    # ------------------------------------------------------------ recovery
    def recover(self) -> int:
        """Re-submit every job the journal proves existed; returns the count.

        Runs before the listeners start.  Jobs come back in submission
        order with their replayed task states — finished specs re-emit,
        attempts/exclusions stick, in-flight leases are refunded, and
        shipped checkpoints are adopted from ``checkpoint_dir`` — and
        cancelled jobs are re-cancelled so their queued specs stay dropped.
        Nothing is re-journaled: the journal already holds these records.
        """
        if self._journal is None:
            return 0
        recovered = 0
        for job_id, replay in self._journal.replay_jobs().items():
            if replay.sweep is None:
                continue  # submission record torn or foreign; cannot rebuild
            try:
                sweep = SweepSpec.from_dict(replay.sweep)
            except Exception:  # noqa: BLE001 - foreign/corrupt payload
                continue
            self.submit(
                sweep,
                name=replay.name,
                priority=replay.priority,
                job_id=job_id,
                replay=replay.tasks,
                record=False,
            )
            if replay.cancelled:
                self.cancel(job_id, record=False)
            recovered += 1
        return recovered

    def submit_sweep(self, specs: Sequence[RunSpec]) -> str:
        """Submit a sweep host's grid as the job :data:`SWEEP_JOB`."""
        self.submit(SweepSpec(name=SWEEP_JOB, specs=tuple(specs)), job_id=SWEEP_JOB)
        return SWEEP_JOB

    # ------------------------------------------------------------- workers
    def claim_worker(self, requested: str) -> str:
        """Register a worker under a connection-unique name.

        ``requested``, or ``requested#N`` when that is taken: two workers
        arriving with the same auto-generated name (cloned VMs, copy-pasted
        ``--connect`` commands) would otherwise alias in stats and — worse —
        in per-task exclusion sets, letting a crashing worker's retry land
        right back on its same-named twin.  The worker adopts the name
        from the welcome message for the rest of its session (heartbeats,
        redials), so exclusions stay keyed on it.
        """
        with self._lock:
            worker, ordinal = requested, 2
            while worker in self._workers:
                worker = f"{requested}#{ordinal}"
                ordinal += 1
            self._workers.add(worker)
            return worker

    def drop_worker(self, worker: str) -> None:
        """Forget a disconnected worker and requeue everything it leased.

        After :meth:`shutdown` the worker is only forgotten: the closing
        plane severed it through no fault of its own, so a graceful stop
        journals what a SIGKILL would.
        """
        with self._lock:
            self._workers.discard(worker)
            self._changed.notify_all()  # wake wait_for_drain
            if self._shut_down:
                return
            for job in self._jobs.values():
                for task in job.tasks:
                    if task.state == _LEASED and task.worker == worker:
                        self.stats["disconnects"] += 1
                        self._requeue_or_fail_locked(
                            job, task,
                            f"worker {worker} disconnected mid-spec",
                            exclude=True,
                        )

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_drain(self, wait: float) -> bool:
        """Block up to ``wait`` seconds until no worker is connected.

        A finished ``drain`` store's idle workers leave within one idle
        poll; a plane closed before that would make them redial it.
        """
        with self._changed:
            return self._changed.wait_for(lambda: not self._workers, wait)

    # ------------------------------------------------------------ submission
    def submit(
        self,
        sweep: SweepSpec,
        name: Optional[str] = None,
        priority: int = 1,
        job_id: Optional[str] = None,
        replay: Optional[Dict[str, TaskReplay]] = None,
        record: bool = True,
    ) -> Dict[str, Any]:
        """Register a sweep as a new job; returns its summary.

        Per spec, in order: a journal-replayed terminal state wins, then the
        result-cache short-circuit, then coalescing onto an identical spec
        already in flight for another job, then the job's ready queue.
        """
        if not isinstance(priority, int) or priority < 1:
            raise ConfigurationError(
                f"job priority must be a positive integer, got {priority!r}"
            )
        if not sweep.specs:
            # Usually a malformed submission (a grid-style dict where
            # SweepSpec.from_dict expected {"name", "specs"}): rejecting it
            # beats registering a job that silently "completes" with 0 runs.
            raise ConfigurationError(
                f"sweep {sweep.name!r} has no specs; nothing to run"
            )
        with self._lock:
            if job_id is None:
                job_id = f"job-{self._counter:04d}-{uuid.uuid4().hex[:6]}"
            if job_id in self._jobs:
                raise ServiceError(f"job id {job_id!r} is already registered")
            self._counter += 1
            job = Job(job_id, name or sweep.name, priority, sweep)
            if record:
                self._journal_append({
                    "kind": "job-submitted", "job": job_id, "name": job.name,
                    "priority": priority, "sweep": sweep.to_dict(),
                })
            self._jobs[job_id] = job
            self._scheduler.add(job_id, priority)
            self.stats["jobs_submitted"] += 1
            for position, spec in enumerate(sweep.specs):
                self._place_task_locked(job, position, spec, replay)
            self._maybe_finish_job_locked(job)
            return job.summary()

    def _place_task_locked(
        self,
        job: Job,
        position: int,
        spec: RunSpec,
        replay: Optional[Dict[str, TaskReplay]],
    ) -> None:
        task = job.tasks[position]
        state = replay.get(task.key) if replay else None
        if state is not None:
            if state.result is not None:
                try:
                    parsed = SimResult.from_dict(state.result)
                except Exception:  # noqa: BLE001 - foreign/corrupt payload
                    state = None  # treat as never-run rather than crash
                else:
                    self.stats["replayed"] += 1
                    self._finish_task_locked(
                        job, task, _DONE, parsed, journal=False
                    )
                    return
            if state is not None and state.failed:
                task.errors = list(state.errors)
                self._finish_task_locked(job, task, _FAILED, journal=False)
                return
            if state is not None:
                task.attempts = state.settled_attempts()
                task.excluded = set(state.excluded)
                task.errors = list(state.errors)
        if self.cache is not None and self.cache.contains(task.key):
            cached = self.cache.get(spec)  # corrupt/stale entries evict here
            if cached is not None:
                job.cached.add(position)
                job.short_circuited += 1
                self.stats["short_circuited"] += 1
                # Not journaled and not re-banked: on restart the cache entry
                # itself re-answers the spec, no record needed.
                self._finish_task_locked(
                    job, task, _DONE, cached, journal=False, bank=False
                )
                return
        chain = self._inflight.get(task.key)
        if chain is not None:
            chain.append((job.job_id, position))
            job.coalesced += 1
            self.stats["coalesced"] += 1
            return  # follower: stays ready but never queued itself
        if self.checkpoint_dir is not None:
            # Adopt a checkpoint a killed sweep host or daemon left on disk.
            from repro.snapshot import checkpoint_path, try_load_snapshot

            snapshot, _ = try_load_snapshot(
                checkpoint_path(self.checkpoint_dir, spec)
            )
            if snapshot is not None and snapshot.spec == spec:
                task.checkpoint = snapshot
        self._inflight[task.key] = [(job.job_id, position)]
        job.ready.append(position)

    # ---------------------------------------------------------- assignment
    def assign(self, worker: str) -> Dict[str, Any]:
        """Next wire message for a worker: a task, an idle nudge, or drain.

        Jobs are tried in fair-share order; within a job, specs go out in
        queue order, skipping any that exclude this worker.  Only the job
        that actually receives the slot is charged.  With nothing to
        assign, a ``drain`` store whose jobs are all terminal answers
        ``drain``; otherwise — always, for the service, whose pools are
        expected to run with ``--redial`` — the answer is ``idle``.
        """
        with self._lock:
            order = self._scheduler.order(
                job_id for job_id, job in self._jobs.items() if job.ready
            )
            chosen: Optional[Tuple[Job, int]] = None
            for job_id in order:
                job = self._jobs[job_id]
                for position in job.ready:
                    if worker not in job.tasks[position].excluded:
                        chosen = (job, position)
                        break
                if chosen is not None:
                    break
            if chosen is None:
                # Exclusion is best-effort: a spec that excludes every
                # connected worker has nobody left to serve it — retrying
                # beats wedging the job forever.
                for job_id in order:
                    job = self._jobs[job_id]
                    for position in job.ready:
                        if self._workers <= job.tasks[position].excluded:
                            chosen = (job, position)
                            break
                    if chosen is not None:
                        break
            if chosen is None:
                if self.drain and all(
                    job.state in TERMINAL_JOB_STATES
                    for job in self._jobs.values()
                ):
                    return {"type": "drain"}
                return {"type": "idle", "delay": 0.05}
            job, position = chosen
            job.ready.remove(position)
            task = job.tasks[position]
            task.state = _LEASED
            task.worker = worker
            task.attempts += 1
            now = time.monotonic()
            if task.first_assigned is None:
                task.first_assigned = now
            task.deadline = now + self.lease_seconds
            if job.state == JOB_QUEUED:
                job.state = JOB_RUNNING
            self._scheduler.charge(job.job_id)
            self.stats["assigned"] += 1
            self._journal_append({
                "kind": "assigned", "job": job.job_id, "key": task.key,
                "worker": worker,
            })
            message = {
                "type": "task",
                "task": format_task_id(job.job_id, position),
                "payload": task.payload,
            }
            if self.checkpoint_every is not None:
                message["checkpoint_every"] = self.checkpoint_every
            if task.checkpoint is not None:
                from repro.snapshot import snapshot_document

                message["checkpoint"] = snapshot_document(task.checkpoint)
                self.stats["resumed"] += 1
            return message

    # ------------------------------------------------------- worker reports
    def heartbeat(self, job_id: str, position: int, worker: str) -> None:
        with self._lock:
            task = self._task_locked(job_id, position)
            if task is not None and task.state == _LEASED and task.worker == worker:
                task.deadline = time.monotonic() + self.lease_seconds

    def complete(
        self, job_id: str, position: int, worker: str, result: Any
    ) -> None:
        try:
            parsed = SimResult.from_dict(result)
        except Exception as error:  # noqa: BLE001 - arbitrary payloads
            self.error(
                job_id, position, worker,
                f"worker returned an invalid result payload: "
                f"{describe_error(error)}",
            )
            return
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
            if job is None or task is None:
                return
            if task.state in _TERMINAL_TASK_STATES:
                # Late result after reassignment, expiry, or cancellation.
                # The work is real: bank it in the cache and complete any
                # successor chain that re-runs the same spec key.
                self.stats["duplicates"] += 1
                self._bank_result_locked(task, parsed)
                self._complete_chain_head_locked(task.key, parsed)
                return
            if task.state == _READY:
                # Expired lease, but the original worker finished after all.
                try:
                    job.ready.remove(position)
                except ValueError:
                    return  # a coalesced follower never leases; drop it
            task.checkpoint = None
            self._finish_task_locked(job, task, _DONE, parsed)
        if self.checkpoint_dir is not None:
            from repro.snapshot import checkpoint_path

            path = checkpoint_path(
                self.checkpoint_dir, RunSpec.from_dict(task.payload)
            )
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def error(
        self, job_id: str, position: int, worker: str, reason: str
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
            if job is None or task is None:
                return
            if task.state != _LEASED or task.worker != worker:
                return  # stale report from a lease that already expired
            self._requeue_or_fail_locked(job, task, reason, exclude=True)

    def checkpoint(
        self, job_id: str, position: int, worker: str, document: Any
    ) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
        if job is None or task is None:
            return
        snapshot = self._parse_checkpoint(
            RunSpec.from_dict(task.payload), document
        )
        if snapshot is None:
            return
        with self._lock:
            if task.state != _LEASED or task.worker != worker:
                return  # stale shipment from an expired lease
            task.checkpoint = snapshot
            # A checkpoint proves liveness as well as any heartbeat.
            task.deadline = time.monotonic() + self.lease_seconds
            self.stats["checkpoints"] += 1
        self._persist_checkpoint(snapshot)

    def release(
        self, job_id: str, position: int, worker: str, document: Any
    ) -> None:
        """Clean mid-spec lease return: attempt refunded, nobody excluded."""
        with self._lock:
            job = self._jobs.get(job_id)
            task = self._task_locked(job_id, position)
        if job is None or task is None:
            return
        snapshot = (
            self._parse_checkpoint(RunSpec.from_dict(task.payload), document)
            if document else None
        )
        with self._lock:
            if task.state != _LEASED or task.worker != worker:
                return
            if snapshot is not None:
                task.checkpoint = snapshot
            task.attempts -= 1
            task.state = _READY
            task.worker = None
            job.ready.append(position)
            self.stats["released"] += 1
            self._journal_append({
                "kind": "released", "job": job_id, "key": task.key,
            })
        if snapshot is not None:
            self._persist_checkpoint(snapshot)

    def _persist_checkpoint(self, snapshot: Any) -> None:
        if self.checkpoint_dir is None:
            return
        from repro.snapshot import checkpoint_path, save_snapshot

        try:
            save_snapshot(
                snapshot, checkpoint_path(self.checkpoint_dir, snapshot.spec)
            )
        except OSError:
            pass  # disk trouble only costs resume granularity, not the sweep

    def expire_leases(self) -> None:
        """Requeue expired leases and fail specs past a deadline.

        The worker plane's monitor thread calls this every few hundred
        milliseconds.  A spec deadline counts from the spec's first
        assignment; the sweep budget from its job's submission.
        """
        now = time.monotonic()
        with self._lock:
            for job in self._jobs.values():
                for task in job.tasks:
                    if task.state in _TERMINAL_TASK_STATES:
                        continue
                    if (
                        self.spec_deadline is not None
                        and task.first_assigned is not None
                        and now - task.first_assigned > self.spec_deadline
                    ):
                        self._fail_for_session_locked(
                            job, task,
                            f"spec deadline exceeded ({self.spec_deadline}s "
                            f"since first assignment)",
                            timed_out=True,
                        )
                    elif task.state == _LEASED and task.deadline < now:
                        self.stats["expired"] += 1
                        self._requeue_or_fail_locked(
                            job, task,
                            f"lease expired on worker {task.worker} "
                            f"(no heartbeat for {self.lease_seconds}s)",
                            exclude=True,
                        )
                if (
                    self.sweep_deadline is not None
                    and now - job.started > self.sweep_deadline
                ):
                    for task in job.tasks:
                        if task.state not in _TERMINAL_TASK_STATES:
                            self._fail_for_session_locked(
                                job, task,
                                f"sweep budget exhausted "
                                f"({self.sweep_deadline}s)",
                                timed_out=True,
                            )

    def abort(self, job_id: str, reason: str) -> None:
        """Fail every unfinished spec of a job for ``reason``.

        A sweep host aborts when its local workers all died and nobody
        else is connected, so nobody can ever serve the job.
        """
        with self._lock:
            job = self._jobs[job_id]
            for task in job.tasks:
                if task.state not in _TERMINAL_TASK_STATES:
                    self._fail_for_session_locked(job, task, reason)

    # -------------------------------------------------------- cancellation
    def cancel(self, job_id: str, record: bool = True) -> Optional[Dict[str, Any]]:
        """Cancel a live job; returns its summary, or None when it cannot be.

        Queued specs are dropped on the spot; each *leased* spec is refunded
        exactly once and goes terminal immediately — its straggler worker's
        eventual report is ignored for this job (though a valid result is
        still banked in the cache and completes any successor chain).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_JOB_STATES:
                return None
            job.state = JOB_CANCELLED
            job.finished_at = time.time()
            if record:
                self._journal_append({"kind": "job-cancelled", "job": job_id})
            self._scheduler.remove(job_id)
            self.stats["jobs_cancelled"] += 1
            for task in job.tasks:
                if task.state == _READY:
                    try:
                        job.ready.remove(task.position)
                    except ValueError:
                        pass  # coalesced follower: not queued itself
                    self._finish_task_locked(job, task, _CANCELLED)
                elif task.state == _LEASED:
                    job.refunded += 1
                    self.stats["refunded"] += 1
                    self._finish_task_locked(job, task, _CANCELLED)
            return job.summary()

    # ------------------------------------------------------------- queries
    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [job.summary() for job in self._jobs.values()]

    def job_summary(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.summary()

    def job_detail(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.detail()

    def job_results(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.results_payload()

    def wait_for_results(
        self, job_id: str, after: int, wait: float
    ) -> Optional[Dict[str, Any]]:
        """Long-poll: the runs that landed after the first ``after``.

        Blocks up to ``wait`` seconds until such a run lands, the job goes
        terminal, or the store shuts down; then returns the results payload
        restricted to those runs, in landing order (possibly none).
        """
        with self._changed:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            self._wait_locked(job, after, wait)
            return job.results_payload(after)

    def wait_for_landed(
        self, job_id: str, after: int, wait: float
    ) -> Tuple[List[Tuple[int, SimResult]], bool]:
        """In-process :meth:`wait_for_results` for a sweep host.

        Returns the ``(position, result)`` pairs that landed after the first
        ``after``, in landing order, and whether the job has settled: gone
        terminal, or the store shut down.
        """
        with self._changed:
            job = self._jobs[job_id]
            self._wait_locked(job, after, wait)
            runs = [(position, job.results[position])
                    for position in job.landed[after:]]
            return runs, job.state in TERMINAL_JOB_STATES or self._shut_down

    def job_failures(self, job_id: str) -> List[Tuple[int, str, bool]]:
        """``(position, reasons, timed_out)`` of every failed spec of a job."""
        with self._lock:
            job = self._jobs[job_id]
            return [
                (position, reason, job.tasks[position].timed_out)
                for position, reason in sorted(job.failures.items())
            ]

    def _wait_locked(self, job: Job, after: int, wait: float) -> None:
        self._changed.wait_for(
            lambda: len(job.landed) > after
            or job.state in TERMINAL_JOB_STATES
            or self._shut_down,
            timeout=wait,
        )

    def queue_depth(self) -> int:
        with self._lock:
            return sum(len(job.ready) for job in self._jobs.values())

    def stats_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "service": dict(self.stats),
                "jobs": states,
                "queue_depth": sum(
                    len(job.ready) for job in self._jobs.values()
                ),
                "workers": len(self._workers),
            }

    # ------------------------------------------------------ state machine
    def _task_locked(self, job_id: str, position: int) -> Optional[_Task]:
        job = self._jobs.get(job_id)
        if job is None or not 0 <= position < len(job.tasks):
            return None  # corrupt or foreign task id; ignore
        return job.tasks[position]

    def _parse_checkpoint(self, spec: RunSpec, document: Any) -> Optional[Any]:
        """Validate a shipped snapshot document against its spec."""
        from repro.errors import SnapshotError
        from repro.snapshot import parse_document

        try:
            snapshot = parse_document(
                document, source=f"spec {spec.key()[:12]} checkpoint"
            )
        except SnapshotError:
            return None  # corrupt in flight; the old checkpoint stays usable
        if snapshot.spec != spec:
            return None
        return snapshot

    def _bank_result_locked(self, task: _Task, parsed: SimResult) -> None:
        if self.cache is not None:
            self.cache.put(RunSpec.from_dict(task.payload), parsed)

    def _complete_chain_head_locked(
        self, key: Optional[str], parsed: SimResult
    ) -> None:
        """Complete the current runner (and so its followers) for ``key``.

        Used when a straggler's result arrives for a task that already went
        terminal (cancelled / expired+reassigned) while a successor chain is
        re-running the same spec: first result wins, the successor's own
        eventual report becomes a duplicate.
        """
        chain = self._inflight.get(key) if key is not None else None
        if not chain:
            return
        head_job_id, head_position = chain[0]
        job = self._jobs.get(head_job_id)
        if job is None:
            return
        task = job.tasks[head_position]
        if task.state in _TERMINAL_TASK_STATES:
            return
        if task.state == _READY:
            try:
                job.ready.remove(head_position)
            except ValueError:
                return  # head should always be queued or leased; bail if not
        task.checkpoint = None
        self._finish_task_locked(job, task, _DONE, parsed)

    def _requeue_or_fail_locked(
        self, job: Job, task: _Task, reason: str, exclude: bool
    ) -> None:
        task.errors.append(reason)
        if exclude and task.worker is not None:
            task.excluded.add(task.worker)
            self._journal_append({
                "kind": "excluded", "job": job.job_id, "key": task.key,
                "worker": task.worker, "reason": reason,
            })
        if task.attempts >= self.max_attempts:
            self._finish_task_locked(job, task, _FAILED)
        else:
            task.state = _READY
            task.worker = None
            job.ready.append(task.position)
            self.stats["requeued"] += 1

    def _fail_for_session_locked(
        self, job: Job, task: _Task, reason: str, timed_out: bool = False
    ) -> None:
        """Terminally fail a task for a reason of this session, not the spec.

        Deadlines and aborts are session policy, not durable facts about
        the spec, so nothing is journaled: a restarted store (perhaps with
        a bigger budget) retries the spec.  A late result from a worker
        still running it is dropped as a duplicate.
        """
        if task.state == _READY:
            try:
                job.ready.remove(task.position)
            except ValueError:
                pass  # coalesced follower: not queued itself
        task.errors.append(reason)
        if timed_out:
            task.timed_out = True
            self.stats["timed_out"] += 1
        self._finish_task_locked(job, task, _FAILED, journal=False)

    def _finish_task_locked(
        self,
        job: Job,
        task: _Task,
        state: str,
        result: Optional[SimResult] = None,
        journal: bool = True,
        bank: bool = True,
    ) -> None:
        """Move a task to a terminal state and resolve its coalescing chain.

        A ``done`` head completes every follower with the same result; a
        ``failed`` or ``cancelled`` head promotes the next follower into its
        own job's queue with that job's fresh attempt budget — one tenant's
        burned retries (or cancellation) never decide another tenant's spec.
        """
        task.state = state
        task.worker = None
        job.outstanding -= 1
        self._changed.notify_all()  # wake long-polls (caller holds the lock)
        if state == _DONE:
            job.results[task.position] = result
            job.landed.append(task.position)
            if journal:
                self._journal_append({
                    "kind": "completed", "job": job.job_id, "key": task.key,
                    "result": result.to_dict() if result is not None else None,
                })
            self.stats["completed"] += 1
            if bank and result is not None:
                self._bank_result_locked(task, result)
        elif state == _FAILED:
            job.failures[task.position] = "; ".join(task.errors)
            if journal:
                self._journal_append({
                    "kind": "failed", "job": job.job_id, "key": task.key,
                    "reasons": list(task.errors),
                })
            self.stats["failed"] += 1
        # Cancelled tasks are not journaled per-task: the job-cancelled
        # record re-drops them wholesale on replay.
        self._resolve_chain_locked(job, task, state, result, journal)
        self._maybe_finish_job_locked(job)

    def _resolve_chain_locked(
        self,
        job: Job,
        task: _Task,
        state: str,
        result: Optional[SimResult],
        journal: bool,
    ) -> None:
        key = task.key
        chain = self._inflight.get(key) if key is not None else None
        if not chain:
            return
        entry = (job.job_id, task.position)
        if chain[0] == entry:
            rest = chain[1:]
            if state == _DONE:
                # Pop first: follower completions below must not re-enter.
                del self._inflight[key]
                for follower_job_id, follower_position in rest:
                    follower_job = self._jobs.get(follower_job_id)
                    if follower_job is None:
                        continue
                    follower = follower_job.tasks[follower_position]
                    if follower.state in _TERMINAL_TASK_STATES:
                        continue
                    # bank=False: the head's finish already cached this key.
                    self._finish_task_locked(
                        follower_job, follower, _DONE, result, journal,
                        bank=False,
                    )
            elif rest:
                # Promote the next follower: it runs under its own job's
                # attempt budget and exclusion set.
                next_job_id, next_position = rest[0]
                self._inflight[key] = rest
                next_job = self._jobs.get(next_job_id)
                if next_job is not None:
                    next_job.ready.append(next_position)
            else:
                del self._inflight[key]
        elif entry in chain:
            chain.remove(entry)  # a follower went terminal (cancellation)

    def _maybe_finish_job_locked(self, job: Job) -> None:
        if job.outstanding > 0 or job.state in TERMINAL_JOB_STATES:
            return
        job.state = JOB_FAILED if job.failures else JOB_COMPLETED
        job.finished_at = time.time()
        self._scheduler.remove(job.job_id)
        if job.state == JOB_FAILED:
            self.stats["jobs_failed"] += 1
        else:
            self.stats["jobs_completed"] += 1

"""Checkpointable execution of one RunSpec.

:class:`SpecExecution` drives the same ``begin`` / ``advance`` / ``finish``
phases as :meth:`Manycore.run`, but in event-count slices, so a run can be
captured between slices (:meth:`capture`), preempted cooperatively
(:class:`ExecutionPreempted`), or rebuilt from a snapshot
(:meth:`from_snapshot`).  Slicing is behaviour-preserving: the event loop is
a pure function of its queue state, so a sliced run produces bit-identical
results to an uninterrupted one.  :func:`repro.runner.executor.execute_spec`
runs every spec through one, sliced or not.

A capture holds the complete machine state
(:func:`repro.snapshot.native.capture_machine`), so a restore rebuilds the
machine for the spec and applies it in O(state), without re-running a
single event.  The restore first checks the capture's schema against the
running code's state declarations and resolves every captured part in the
rebuilt machine, raising :class:`SnapshotError` when the simulator code
changed between save and restore.  A live state the codec cannot describe (a
thread parked on an opaque callable) makes :meth:`SpecExecution.capture`
raise :class:`SnapshotError`.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import SnapshotError
from repro.machine.manycore import Manycore
from repro.machine.results import SimResult
from repro.runner.executor import build_config_for
from repro.runner.spec import RunSpec
from repro.snapshot.format import Snapshot, SnapshotWarning, try_load_snapshot
from repro.snapshot.native import capture_machine, restore_machine

#: Default event budget, shared with :meth:`Manycore.run`.
DEFAULT_MAX_EVENTS = Manycore.DEFAULT_MAX_EVENTS

#: Slice size used when an execution only needs preemption checks (no
#: checkpoint interval): ~1 second of simulation between ``should_stop``
#: polls at typical event rates.
STOP_CHECK_EVENTS = 100_000


class ExecutionPreempted(Exception):
    """Control-flow signal: a run stopped cooperatively at a slice boundary.

    Deliberately *not* a :class:`~repro.errors.ReproError` — preemption is
    not a failure; it carries the final :class:`Snapshot` so the caller
    (e.g. a SIGTERM'd worker) can persist or ship it before exiting.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        super().__init__(
            f"execution preempted after {snapshot.events_processed} events "
            f"(cycle {snapshot.clock})"
        )
        self.snapshot = snapshot


class SpecExecution:
    """One spec's simulation, held open between event slices."""

    def __init__(self, spec: RunSpec, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        from repro.runner.registry import REGISTRY

        self.spec = spec
        self.max_events = max_events
        self.machine = Manycore(build_config_for(spec))
        self.handle = REGISTRY.build(self.machine, spec.workload, spec.params_dict())
        self.machine.begin()

    # ------------------------------------------------------------- stepping
    @property
    def events_processed(self) -> int:
        return self.machine.sim.events_processed

    @property
    def clock(self) -> int:
        return self.machine.sim.now

    def complete(self) -> bool:
        """True when no further advance can change the run's outcome."""
        return self.machine.run_complete(max_cycles=self.spec.max_cycles)

    def advance(self, max_events: Optional[int] = None) -> int:
        """Fire up to ``max_events`` events (capped by the cumulative event
        budget); returns how many actually fired."""
        remaining = self.max_events - self.machine.sim.events_processed
        if remaining <= 0:
            return 0
        budget = remaining if max_events is None else min(int(max_events), remaining)
        return self.machine.advance(
            max_events=budget, max_cycles=self.spec.max_cycles
        )

    def result(self) -> SimResult:
        """Finish the run (truncation/deadlock checks) and build the result,
        stamped by :meth:`WorkloadHandle.stamp_operations` like a direct run."""
        return self.handle.stamp_operations(
            self.machine.finish(
                max_cycles=self.spec.max_cycles, max_events=self.max_events
            )
        )

    # -------------------------------------------------------------- capture
    def capture(self) -> Snapshot:
        """Snapshot the live run at the current slice boundary.

        Raises :class:`SnapshotError` when the run already ended or its live
        state holds something the codec cannot describe.
        """
        if self.complete():
            raise SnapshotError(
                "nothing to checkpoint: the run already ended "
                f"(after {self.events_processed} events)"
            )
        return Snapshot(
            spec=self.spec,
            events_processed=self.events_processed,
            clock=self.clock,
            machine=capture_machine(self.machine),
        )

    # -------------------------------------------------------------- restore
    @classmethod
    def from_snapshot(
        cls, snapshot: Snapshot, max_events: int = DEFAULT_MAX_EVENTS
    ) -> "SpecExecution":
        """Rebuild a live execution from a snapshot.

        Raises :class:`SnapshotError` when the snapshot cannot be honoured
        (no or malformed machine payload, or one the running code's state
        declarations no longer match); the caller should fall back to
        from-scratch execution.
        """
        if not snapshot.machine:
            raise SnapshotError(
                f"snapshot for [{snapshot.spec.label()}] carries no machine "
                f"payload; re-create the checkpoint"
            )
        execution = cls(snapshot.spec, max_events=max_events)
        try:
            restore_machine(execution.machine, snapshot.machine)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as error:
            raise SnapshotError(
                f"malformed machine payload for "
                f"[{snapshot.spec.label()}]: {error}"
            )
        return execution

    @classmethod
    def resume(
        cls,
        spec: RunSpec,
        snapshot: Optional[Snapshot] = None,
        path: Optional[Union[str, Path]] = None,
    ) -> "SpecExecution":
        """The live run for ``spec``: restored from ``snapshot`` (else from
        the checkpoint file at ``path``, if one exists), or a fresh build.

        An unusable or mismatched checkpoint is discarded with a structured
        :class:`SnapshotWarning`, its file deleted, and the run starts from
        scratch (mirroring ResultCache's eviction of corrupt entries).
        """
        reason: Optional[str] = None
        if snapshot is None and path is not None:
            snapshot, reason = try_load_snapshot(path)
        if snapshot is not None and snapshot.spec != spec:
            reason = (
                f"checkpoint was written for a different spec "
                f"[{snapshot.spec.label()}]"
            )
        elif snapshot is not None:
            try:
                return cls.from_snapshot(snapshot)
            except SnapshotError as error:
                reason = str(error)
        if reason is not None:
            warnings.warn(
                f"discarding unusable checkpoint for [{spec.label()}], "
                f"running from scratch: {reason}",
                SnapshotWarning,
                stacklevel=3,
            )
            if path is not None:
                Path(path).unlink(missing_ok=True)
        return cls(spec)

    # ------------------------------------------------------------ completion
    def run_to_completion(
        self,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[Snapshot], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> SimResult:
        """Drive the run to its end, checkpointing between slices.

        ``on_checkpoint`` receives a fresh :class:`Snapshot` every
        ``checkpoint_every`` events.  ``should_stop`` is polled between
        slices; when it returns True the run stops cooperatively and
        :class:`ExecutionPreempted` (carrying a final snapshot) is raised.
        With neither configured this is exactly :meth:`Manycore.run`.

        The host seconds this call takes, from the built or restored machine
        to the result, land in ``result.extra["wall_seconds"]``: the one
        timing rule for every result, whatever executor ran it.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SnapshotError("checkpoint_every must be a positive event count")
        started = time.perf_counter()
        if checkpoint_every is None and should_stop is None:
            self.advance()
        else:
            interval = checkpoint_every or STOP_CHECK_EVENTS
            while not self.complete():
                if should_stop is not None and should_stop():
                    raise ExecutionPreempted(self.capture())  # repro: noqa[ERR001] -- not an error: a control-flow signal carrying the final snapshot (see class docstring)
                if self.advance(interval) == 0:
                    break  # event budget exhausted; result() reports the deadlock
                if (
                    checkpoint_every is not None
                    and on_checkpoint is not None
                    and not self.complete()
                ):
                    on_checkpoint(self.capture())
        result = self.result()
        result.extra["wall_seconds"] = round(time.perf_counter() - started, 6)
        return result


def run_prefix(
    spec: RunSpec, events: int, max_events: int = DEFAULT_MAX_EVENTS
) -> SpecExecution:
    """Run a spec for (up to) ``events`` events and hand back the live run."""
    execution = SpecExecution(spec, max_events=max_events)
    execution.advance(events)
    if execution.complete():
        raise SnapshotError(
            f"[{spec.label()}] finished within {execution.events_processed} "
            f"events; there is nothing left to snapshot"
        )
    return execution


def snapshot_after(
    spec: RunSpec, events: int, max_events: int = DEFAULT_MAX_EVENTS
) -> Snapshot:
    """Snapshot a spec after exactly ``events`` events (``repro snapshot save``)."""
    return run_prefix(spec, events, max_events=max_events).capture()


def resume_to_completion(
    snapshot: Snapshot, max_events: int = DEFAULT_MAX_EVENTS
) -> SimResult:
    """Restore a snapshot and run it to its end (``repro snapshot restore``).

    Unlike ``execute_spec(spec, resume_from=snapshot)``, an unusable snapshot
    raises :class:`SnapshotError` instead of running the spec from scratch.
    """
    return SpecExecution.from_snapshot(
        snapshot, max_events=max_events
    ).run_to_completion()

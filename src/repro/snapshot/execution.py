"""Checkpointable execution of one RunSpec.

:class:`SpecExecution` drives the same ``begin`` / ``advance`` / ``finish``
phases as :meth:`Manycore.run`, but in event-count slices, so a run can be
captured between slices (:meth:`capture`), preempted cooperatively
(:class:`ExecutionPreempted`), or rebuilt from a snapshot
(:meth:`from_snapshot`).  Slicing is behaviour-preserving: the event loop is
a pure function of its queue state, so a sliced run produces bit-identical
results to an uninterrupted one.

A capture holds the complete machine state
(:func:`repro.snapshot.native.capture_machine`), so a restore rebuilds the
machine for the spec and applies it in O(state), without re-running a
single event.  :meth:`_verify_native` then compares engine counters, the
whole rng tree state, stats, thread frame stacks, sync-object fingerprints,
and per-thread progress against the snapshot's native sections, raising
:class:`SnapshotError` on any divergence (e.g. the simulator code changed
between save and restore).  A live state the codec cannot describe (a
thread parked on an opaque callable) makes :meth:`SpecExecution.capture`
raise :class:`SnapshotError`.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.errors import SnapshotError
from repro.machine.manycore import Manycore
from repro.machine.results import SimResult
from repro.runner.executor import build_config_for
from repro.runner.spec import RunSpec
from repro.snapshot.format import (
    Snapshot,
    SnapshotWarning,
    checkpoint_path,
    save_snapshot,
    try_load_snapshot,
)
from repro.snapshot.native import capture_machine, restore_machine, sync_fingerprint

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
        """Finish the run (truncation/deadlock checks) and build the result.

        Mirrors :meth:`WorkloadHandle.run`: workloads that declare an
        ``operations`` metadata count get it stamped into ``result.extra``
        for completed runs, so resumed results match direct ones key-for-key.
        """
        result = self.machine.finish(
            max_cycles=self.spec.max_cycles, max_events=self.max_events
        )
        operations = self.handle.metadata.get("operations")
        if operations is not None and result.completed:
            result.extra.setdefault("operations", float(operations))
        return result

    # -------------------------------------------------------------- capture
    def _native_state(self) -> Dict[str, Any]:
        machine = self.machine
        return {
            "engine": machine.sim.checkpoint_state(),
            "rng": machine.rng.tree_getstate(),
            "stats": machine.stats.to_dict(),
            "finished_threads": machine._finished,
            "thread_operations": [t.operations_issued for t in machine.threads],
            "thread_frames": [
                None
                if thread.frames is None
                else [[frame.routine, frame.label] for frame in thread.frames]
                for thread in machine.threads
            ],
            "sync_objects": [sync_fingerprint(obj) for obj in machine.sync_objects],
        }

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
            native=self._native_state(),
            machine=capture_machine(self.machine),
        )

    # -------------------------------------------------------------- restore
    @classmethod
    def from_snapshot(
        cls, snapshot: Snapshot, max_events: int = DEFAULT_MAX_EVENTS
    ) -> "SpecExecution":
        """Rebuild a live execution from a snapshot and verify it.

        Raises :class:`SnapshotError` when the snapshot cannot be honoured
        (no or malformed machine payload, native-state mismatch); the caller
        should fall back to from-scratch execution.
        """
        if not snapshot.machine:
            raise SnapshotError(
                f"snapshot for [{snapshot.spec.label()}] carries no machine "
                f"payload; re-create the checkpoint"
            )
        execution = cls(snapshot.spec, max_events=max_events)
        try:
            restore_machine(execution.machine, snapshot.machine)
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise SnapshotError(
                f"malformed native machine payload for "
                f"[{snapshot.spec.label()}]: {error}"
            )
        execution._verify_native(snapshot)
        return execution

    def _verify_native(self, snapshot: Snapshot) -> None:
        """Compare the restored machine against the captured state."""
        observed = self._native_state()
        diverged = sorted(
            section
            for section in set(observed) | set(snapshot.native)
            if observed.get(section) != snapshot.native.get(section)
        )
        if diverged:
            raise SnapshotError(
                f"restored machine diverged from snapshot for "
                f"[{self.spec.label()}] in: {', '.join(diverged)}; the "
                f"simulation code has changed since the checkpoint was written"
            )

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
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise SnapshotError("checkpoint_every must be a positive event count")
        if checkpoint_every is None and should_stop is None:
            self.advance()
            return self.result()
        interval = checkpoint_every or STOP_CHECK_EVENTS
        while not self.complete():
            if should_stop is not None and should_stop():
                raise ExecutionPreempted(self.capture())  # repro: noqa[ERR001] -- not an error: a control-flow signal carrying the final snapshot (see class docstring)
            fired = self.advance(interval)
            if fired == 0:
                break  # event budget exhausted; result() reports the deadlock
            if (
                checkpoint_every is not None
                and on_checkpoint is not None
                and not self.complete()
            ):
                on_checkpoint(self.capture())
        return self.result()


# ------------------------------------------------------------------- drivers
def execute_with_checkpoints(
    spec: RunSpec,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Any] = None,
    resume_from: Optional[Snapshot] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    on_checkpoint: Optional[Callable[[Snapshot], None]] = None,
    auto_snapshot: Optional[int] = None,
) -> SimResult:
    """Run one spec with checkpointing, resuming from prior state if any.

    The checkpointed sibling of :func:`repro.runner.executor.execute_spec`:
    same contract (spec in, wall-clock-stamped :class:`SimResult` out), plus

    * resume — ``resume_from`` (an in-memory snapshot, e.g. shipped by the
      broker) or an existing ``<checkpoint_dir>/<spec key>.ckpt.json`` is
      restored first; an unusable or mismatched checkpoint is discarded with
      a structured :class:`SnapshotWarning` and the run starts from scratch
      (mirroring ResultCache's eviction of corrupt entries);
    * periodic capture — every ``checkpoint_every`` events the snapshot is
      written to ``checkpoint_dir`` and/or passed to ``on_checkpoint``;
    * auto-snapshot ring — with ``auto_snapshot=K`` each periodic snapshot
      is *also* banked as a ring file in ``checkpoint_dir`` (pruned to the
      last K), leaving a time-travel trail for ``repro debug --from`` that
      survives the spec's completion;
    * cooperative preemption — ``should_stop`` ends the run between slices
      with :class:`ExecutionPreempted`; the final snapshot is persisted to
      ``checkpoint_dir`` before the exception propagates.

    The checkpoint file is deleted once the spec completes, so a later run
    of the same spec starts clean.
    """
    started = time.perf_counter()
    path = (
        checkpoint_path(checkpoint_dir, spec) if checkpoint_dir is not None else None
    )
    ring = None
    if auto_snapshot is not None:
        if checkpoint_dir is None:
            raise SnapshotError(
                "auto_snapshot banks ring files into the checkpoint "
                "directory; none was given"
            )
        from repro.snapshot.ring import CheckpointRing

        ring = CheckpointRing(
            auto_snapshot, directory=checkpoint_dir, keep_in_memory=False
        )

    snapshot = resume_from
    reason: Optional[str] = None
    if snapshot is None and path is not None:
        snapshot, reason = try_load_snapshot(path)
    if snapshot is not None and snapshot.spec != spec:
        reason = (
            f"checkpoint was written for a different spec "
            f"[{snapshot.spec.label()}]"
        )
        snapshot = None

    execution: Optional[SpecExecution] = None
    if snapshot is not None:
        try:
            execution = SpecExecution.from_snapshot(snapshot)
        except SnapshotError as error:
            reason = str(error)
    if execution is None:
        if reason is not None:
            warnings.warn(
                f"discarding unusable checkpoint for [{spec.label()}], "
                f"running from scratch: {reason}",
                SnapshotWarning,
                stacklevel=2,
            )
            if path is not None:
                Path(path).unlink(missing_ok=True)
        execution = SpecExecution(spec)

    def _sink(snap: Snapshot) -> None:
        if path is not None:
            save_snapshot(snap, path)
        if ring is not None:
            ring.push(snap)
        if on_checkpoint is not None:
            on_checkpoint(snap)

    sink = (
        _sink
        if (path is not None or ring is not None or on_checkpoint is not None)
        else None
    )
    try:
        result = execution.run_to_completion(
            checkpoint_every=checkpoint_every,
            on_checkpoint=sink,
            should_stop=should_stop,
        )
    except ExecutionPreempted as preempted:
        if path is not None:
            save_snapshot(preempted.snapshot, path)
        if ring is not None:
            ring.push(preempted.snapshot)
        raise
    if path is not None:
        Path(path).unlink(missing_ok=True)
    result.extra.setdefault("wall_seconds", round(time.perf_counter() - started, 6))
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
    """Restore a snapshot and run it to its end (``repro snapshot restore``)."""
    started = time.perf_counter()
    execution = SpecExecution.from_snapshot(snapshot, max_events=max_events)
    result = execution.run_to_completion()
    result.extra.setdefault("wall_seconds", round(time.perf_counter() - started, 6))
    return result

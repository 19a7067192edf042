"""Checkpoint/restore for simulations and sweeps (simics-style).

A :class:`Snapshot` is a versioned, integrity-hashed JSON document holding
the complete runtime state of a running machine — thread frame stacks, the
event queue, caches, the wireless fabric, the full
:class:`~repro.sim.rng.DeterministicRng` derivation tree, the stats
flyweights.  :mod:`repro.snapshot.native` captures it generically from the
state each simulator class declares (``STATE``/``REBUILT``).  Restore
rebuilds the machine for the spec and applies that state in O(state),
re-running no events, after checking the capture's schema against the
running code's declarations, so a snapshot written by drifted code can never
silently produce a wrong continuation.

:class:`SpecExecution` is the sliced run every spec goes through
(:func:`repro.runner.executor.execute_spec` drives one per spec, with its
checkpoint, resume and preemption options).  The package also provides
:class:`RunManifest` — the on-disk record behind ``repro run --resume
<run-id>`` grid-level resumability — the checkpoint-file helpers, the
document codec behind the distributed worker's checkpoint shipping and the
``repro snapshot`` CLI, plus :class:`CheckpointRing` (the bounded
auto-snapshot buffer behind ``repro run --auto-snapshot`` and the ``repro
debug`` time-travel debugger in :mod:`repro.snapshot.debugger`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotWarning",
    "snapshot_document",
    "parse_document",
    "save_snapshot",
    "load_snapshot",
    "try_load_snapshot",
    "checkpoint_path",
    "DEFAULT_MAX_EVENTS",
    "SpecExecution",
    "ExecutionPreempted",
    "run_prefix",
    "snapshot_after",
    "resume_to_completion",
    "CheckpointRing",
    "RingEntry",
    "ring_path",
    "ring_paths",
    "RunManifest",
    "available_runs",
    "DEFAULT_RUNS_DIR",
    "RUNS_DIR_ENV",
    "new_run_id",
    "runs_root",
]

_EXPORTS = {
    "DEFAULT_MAX_EVENTS": "repro.snapshot.execution",
    "ExecutionPreempted": "repro.snapshot.execution",
    "SpecExecution": "repro.snapshot.execution",
    "resume_to_completion": "repro.snapshot.execution",
    "run_prefix": "repro.snapshot.execution",
    "snapshot_after": "repro.snapshot.execution",
    "SNAPSHOT_FORMAT": "repro.snapshot.format",
    "SNAPSHOT_VERSION": "repro.snapshot.format",
    "Snapshot": "repro.snapshot.format",
    "SnapshotWarning": "repro.snapshot.format",
    "checkpoint_path": "repro.snapshot.format",
    "load_snapshot": "repro.snapshot.format",
    "parse_document": "repro.snapshot.format",
    "save_snapshot": "repro.snapshot.format",
    "snapshot_document": "repro.snapshot.format",
    "try_load_snapshot": "repro.snapshot.format",
    "CheckpointRing": "repro.snapshot.ring",
    "RingEntry": "repro.snapshot.ring",
    "ring_path": "repro.snapshot.ring",
    "ring_paths": "repro.snapshot.ring",
    "DEFAULT_RUNS_DIR": "repro.snapshot.manifest",
    "RUNS_DIR_ENV": "repro.snapshot.manifest",
    "RunManifest": "repro.snapshot.manifest",
    "available_runs": "repro.snapshot.manifest",
    "new_run_id": "repro.snapshot.manifest",
    "runs_root": "repro.snapshot.manifest",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

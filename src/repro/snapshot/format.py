"""Versioned, integrity-hashed snapshot documents.

A snapshot file is a JSON envelope::

    {"format": "wisync-snapshot", "version": 2,
     "sha256": "<hash of canonical body>", "snapshot": {...body...}}

The hash is computed over the canonical JSON form of the body (sorted keys,
compact separators — the same canonicalization :meth:`RunSpec.key` uses), so
any bit flip, truncation, or hand edit is detected at load time.  Loading is
strict by default (:func:`load_snapshot` raises :class:`SnapshotError`);
callers that want the ResultCache-style "evict and fall back to from-scratch"
behaviour use :func:`try_load_snapshot`, which returns the failure reason
instead of raising so it can be surfaced as a structured
:class:`SnapshotWarning`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, Optional, Tuple, Union

from repro.errors import SnapshotError
from repro.runner.spec import RunSpec

#: Document format marker; anything else is not a snapshot file.
SNAPSHOT_FORMAT = "wisync-snapshot"
#: Bump when the body layout changes; older/newer versions are rejected.
#: Version 2 added the ``machine`` payload (full native machine state) and
#: the thread-frame/sync sections of ``native``.
SNAPSHOT_VERSION = 2

#: The one restore strategy, recorded in every body: rebuild the machine
#: directly from the captured ``machine`` payload, O(state), then check it
#: against the ``native`` sections.  A body naming any other strategy (the
#: ``replay`` checkpoints of earlier builds, which carry no machine payload)
#: is rejected on read.
STRATEGY_NATIVE = "native"


class SnapshotWarning(UserWarning):
    """A checkpoint was unusable and execution fell back to from-scratch."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def body_hash(body: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON form of a snapshot body."""
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time capture of one running :class:`RunSpec` simulation.

    ``events_processed`` and ``clock`` say where in the run the capture was
    taken.  ``machine`` is the full native-restore payload produced by
    :func:`repro.snapshot.native.capture_machine`; a restore rebuilds the
    machine from it in O(state) without re-running a single event.
    ``native`` carries everything enumerable about the captured machine
    (engine counters, the rng derivation tree, stats, per-thread progress)
    and is compared against the restored machine, so drift between the code
    that saved and the code that restores is detected instead of silently
    producing a wrong continuation.
    """

    #: Written into every body and checked on read (see STRATEGY_NATIVE).
    strategy: ClassVar[str] = STRATEGY_NATIVE

    spec: RunSpec
    events_processed: int
    clock: int
    native: Dict[str, Any] = field(default_factory=dict)
    machine: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.events_processed < 0:
            raise SnapshotError("snapshot events_processed cannot be negative")

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_key": self.spec.key(),
            "events_processed": self.events_processed,
            "clock": self.clock,
            "strategy": self.strategy,
            "native": self.native,
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Snapshot":
        strategy = payload.get("strategy")
        if strategy != STRATEGY_NATIVE:
            raise SnapshotError(
                f"unknown snapshot strategy {strategy!r}: this build restores "
                f"only {STRATEGY_NATIVE!r} snapshots; re-create the checkpoint"
            )
        try:
            spec = RunSpec.from_dict(payload["spec"])
            snapshot = cls(
                spec=spec,
                events_processed=int(payload["events_processed"]),
                clock=int(payload["clock"]),
                native=dict(payload.get("native") or {}),
                machine=payload.get("machine"),
            )
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(f"malformed snapshot body: {error}")
        recorded_key = payload.get("spec_key")
        if recorded_key is not None and recorded_key != spec.key():
            raise SnapshotError(
                "snapshot spec_key does not match its own spec; the spec "
                "serialization has drifted since the snapshot was written"
            )
        return snapshot

    def describe(self) -> Dict[str, Any]:
        """Human-oriented summary for ``repro snapshot inspect``."""
        engine = self.native.get("engine") or {}
        return {
            "spec": self.spec.label(),
            "spec_key": self.spec.key(),
            "strategy": self.strategy,
            "events_processed": self.events_processed,
            "clock": self.clock,
            "pending_events": engine.get("pending_events"),
            "finished_threads": self.native.get("finished_threads"),
            "rng_streams": len(self.native.get("rng") or {}),
        }


# ------------------------------------------------------------------ documents
def snapshot_document(snapshot: Snapshot) -> Dict[str, Any]:
    """Wrap a snapshot in the versioned, hashed on-disk envelope."""
    body = snapshot.to_dict()
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "sha256": body_hash(body),
        "snapshot": body,
    }


def parse_document(payload: Any, source: str = "snapshot") -> Snapshot:
    """Validate an envelope (format, version, integrity hash) into a Snapshot."""
    if not isinstance(payload, dict):
        raise SnapshotError(f"{source} is not a snapshot document")
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{source} is not a {SNAPSHOT_FORMAT} document "
            f"(format={payload.get('format')!r})"
        )
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{source} has unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    body = payload.get("snapshot")
    if not isinstance(body, dict):
        raise SnapshotError(f"{source} has no snapshot body")
    recorded = payload.get("sha256")
    actual = body_hash(body)
    if recorded != actual:
        raise SnapshotError(
            f"{source} failed its integrity check "
            f"(recorded sha256 {str(recorded)[:12]}..., actual {actual[:12]}...)"
        )
    return Snapshot.from_dict(body)


# ---------------------------------------------------------------------- files
def save_snapshot(snapshot: Snapshot, path: Union[str, Path]) -> Path:
    """Atomically write a snapshot document (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(snapshot_document(snapshot), indent=2, sort_keys=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Read and validate a snapshot file; raises :class:`SnapshotError`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}")
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {error}")
    return parse_document(payload, source=f"snapshot {path}")


def try_load_snapshot(
    path: Union[str, Path]
) -> Tuple[Optional[Snapshot], Optional[str]]:
    """Load a checkpoint leniently, mirroring ResultCache eviction semantics.

    Returns ``(snapshot, None)`` on success, ``(None, None)`` when the file
    simply does not exist, and ``(None, reason)`` when it exists but is
    corrupt, stale-versioned, or otherwise unusable — the caller should warn
    with the reason, discard the file, and fall back to from-scratch
    execution.
    """
    path = Path(path)
    if not path.exists():
        return None, None
    try:
        return load_snapshot(path), None
    except SnapshotError as error:
        return None, str(error)


def checkpoint_path(directory: Union[str, Path], spec: RunSpec) -> Path:
    """Canonical checkpoint location for a spec: ``<dir>/<spec key>.ckpt.json``."""
    return Path(directory) / f"{spec.key()}.ckpt.json"

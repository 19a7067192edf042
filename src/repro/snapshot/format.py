"""Versioned, integrity-hashed snapshot documents.

A snapshot file is a JSON envelope::

    {"format": "wisync-snapshot", "version": 3,
     "sha256": "<hash of canonical body>", "snapshot": {...body...}}

The body names the spec and the cut and holds the machine payload of
:mod:`repro.snapshot.native` (``schema``, ``parts``, ``state``, ``stats``,
``rng``).  The file is written in the canonical JSON form the hash covers
(sorted keys, compact separators — the same canonicalization
:meth:`RunSpec.key` uses), so any bit flip, truncation, or hand edit is
detected at load time; ``repro snapshot inspect`` is the human view.  Loading is
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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import SnapshotError
from repro.runner.spec import RunSpec

#: Document format marker; anything else is not a snapshot file.
SNAPSHOT_FORMAT = "wisync-snapshot"
#: Bump when the body layout changes; older/newer versions are rejected.
#: Version 3 encodes the machine from the classes' declared state and drops
#: version 2's ``native`` verification sections and ``strategy`` field.
SNAPSHOT_VERSION = 3


class SnapshotWarning(UserWarning):
    """A checkpoint was unusable and execution fell back to from-scratch."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def body_hash(body: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON form of a snapshot body."""
    return _sha256(_canonical(body))


@dataclass(frozen=True)
class Snapshot:
    """A point-in-time capture of one running :class:`RunSpec` simulation.

    ``events_processed`` and ``clock`` say where in the run the capture was
    taken.  ``machine`` is the full payload produced by
    :func:`repro.snapshot.native.capture_machine`; a restore rebuilds the
    machine from it in O(state) without re-running a single event, after
    checking its schema against the running code's state declarations, so
    drift between the code that saved and the code that restores is
    detected instead of silently producing a wrong continuation.
    """

    spec: RunSpec
    events_processed: int
    clock: int
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
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Snapshot":
        try:
            spec = RunSpec.from_dict(payload["spec"])
            snapshot = cls(
                spec=spec,
                events_processed=int(payload["events_processed"]),
                clock=int(payload["clock"]),
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
        machine = self.machine or {}
        queue = _part_field(machine, "repro.sim.engine.Simulator", "_queue")
        return {
            "spec": self.spec.label(),
            "spec_key": self.spec.key(),
            "events_processed": self.events_processed,
            "clock": self.clock,
            "pending_events": None if queue is None else len(queue),
            "finished_threads": _part_field(
                machine, "repro.machine.manycore.Manycore", "_finished"
            ),
            "rng_streams": len(machine.get("rng") or {}),
        }


def _part_field(machine: Dict[str, Any], class_name: str, name: str) -> Any:
    """The captured value of ``name`` on the first part of ``class_name``,
    located through the payload's schema table (``None`` if absent)."""
    schema = machine.get("schema") or []
    for part, values in zip(machine.get("parts") or [], machine.get("state") or []):
        recorded, fields = schema[part[0]]
        if recorded == class_name and name in fields:
            return values[fields.index(name)]
    return None


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
    # ``_canonical(snapshot_document(snapshot))``, with the body serialized
    # once: the hashed text is the text written.  The envelope's keys are in
    # the sorted order ``_canonical`` writes.
    body = _canonical(snapshot.to_dict())
    data = (
        f'{{"format":{_canonical(SNAPSHOT_FORMAT)},"sha256":"{_sha256(body)}",'
        f'"snapshot":{body},"version":{_canonical(SNAPSHOT_VERSION)}}}'
    )
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

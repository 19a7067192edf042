"""Bounded rings of periodic checkpoints (the auto-snapshot buffer).

A :class:`CheckpointRing` keeps the most recent K snapshots of one running
spec, in memory, on disk, or both.  Two consumers share it:

* ``repro run --auto-snapshot K`` — each periodic checkpoint written by
  ``--checkpoint-every`` is *also* banked as a ring file in the run
  manifest's ``checkpoints/`` directory, pruned to the last K, so a
  finished (or crashed) run leaves a trail of restorable moments behind
  instead of a single overwritten cursor.
* ``repro debug`` — the time-travel debugger feeds an in-memory ring while
  stepping forward and restores from it to travel backward in O(state).

Ring files are ordinary snapshot documents named
``<spec key>.ring-<events, zero-padded>.ckpt.json`` — any of them feeds
``repro snapshot restore``/``inspect`` or ``repro debug --from`` directly.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.errors import SnapshotError
from repro.runner.spec import RunSpec
from repro.snapshot.format import Snapshot, load_snapshot, save_snapshot

#: Zero-padding of the event counter in ring file names keeps lexicographic
#: and numeric order identical, so sorted() walks history oldest-first.
_EVENT_DIGITS = 12


def ring_path(directory: Union[str, Path], spec: RunSpec, events: int) -> Path:
    """Ring-file location for ``spec`` captured at ``events``."""
    return Path(directory) / (
        f"{spec.key()}.ring-{events:0{_EVENT_DIGITS}d}.ckpt.json"
    )


def ring_paths(directory: Union[str, Path], spec: RunSpec) -> List[Path]:
    """Every ring file for ``spec`` under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"{spec.key()}.ring-*.ckpt.json"))


class RingEntry:
    """One banked moment: where it is in simulated time and where it lives."""

    __slots__ = ("events", "clock", "snapshot", "path")

    def __init__(
        self,
        events: int,
        clock: int,
        snapshot: Optional[Snapshot],
        path: Optional[Path],
    ) -> None:
        self.events = events
        self.clock = clock
        self.snapshot = snapshot
        self.path = path

    def load(self) -> Snapshot:
        """The entry's snapshot, from memory or (re-validated) from disk."""
        if self.snapshot is not None:
            return self.snapshot
        if self.path is None:  # unreachable: push() always sets one of the two
            raise SnapshotError("ring entry holds neither a snapshot nor a path")
        return load_snapshot(self.path)


class CheckpointRing:
    """The last ``capacity`` snapshots of one spec, oldest dropped first."""

    def __init__(
        self,
        capacity: int,
        directory: Optional[Union[str, Path]] = None,
        keep_in_memory: bool = True,
    ) -> None:
        if capacity < 1:
            raise SnapshotError(
                f"auto-snapshot ring capacity must be >= 1, got {capacity}"
            )
        if directory is None and not keep_in_memory:
            raise SnapshotError(
                "a ring with neither a directory nor in-memory retention "
                "would discard every snapshot it is given"
            )
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self.keep_in_memory = keep_in_memory
        self._entries: List[RingEntry] = []

    # ------------------------------------------------------------- mutation
    def push(self, snapshot: Snapshot) -> RingEntry:
        """Bank a snapshot; prunes stale futures and over-capacity history.

        Entries at or past the new snapshot's event count are superseded:
        after time-travelling backward and re-advancing, the re-captured
        moments replace the old ones (bit-identical by determinism, but one
        canonical entry per event count keeps the ring unambiguous).
        """
        path: Optional[Path] = None
        if self.directory is not None:
            path = ring_path(self.directory, snapshot.spec, snapshot.events_processed)
            save_snapshot(snapshot, path)
        entry = RingEntry(
            events=snapshot.events_processed,
            clock=snapshot.clock,
            snapshot=snapshot if self.keep_in_memory else None,
            path=path,
        )
        superseded = [e for e in self._entries if e.events >= entry.events]
        self._entries = [e for e in self._entries if e.events < entry.events]
        self._entries.append(entry)
        overflow: List[RingEntry] = []
        if len(self._entries) > self.capacity:
            overflow = self._entries[: len(self._entries) - self.capacity]
            self._entries = self._entries[len(self._entries) - self.capacity:]
        for dropped in superseded + overflow:
            if dropped.path is not None and dropped.path != entry.path:
                dropped.path.unlink(missing_ok=True)
        return entry

    # -------------------------------------------------------------- queries
    def entries(self) -> List[RingEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def newest_at_or_before(self, events: int) -> Optional[RingEntry]:
        """The ring's best launch point for travelling to ``events``."""
        best: Optional[RingEntry] = None
        for entry in self._entries:
            if entry.events <= events and (best is None or entry.events > best.events):
                best = entry
        return best

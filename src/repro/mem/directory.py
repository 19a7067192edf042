"""MOESI-style directory state tracked per cache line.

The timing model only needs to know, for each line: is there a dirty owner,
which cores hold a copy, and where the home bank is.  That is enough to
charge the right number of mesh traversals and invalidations for every
transaction, which is what produces the paper's conventional-synchronization
costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class LineState(enum.Enum):
    """Directory-visible state of a line."""

    INVALID = "I"
    SHARED = "S"        # one or more clean copies
    MODIFIED = "M"      # exactly one dirty owner


# The members the transitions compare against, bound once: on Python 3.11
# ``EnumType`` defines ``__getattr__``, which sends every ``LineState.X``
# read down the slow generic attribute path (several times the cost of a
# module global), and the transitions run once per memory access.
_INVALID = LineState.INVALID
_SHARED = LineState.SHARED
_MODIFIED = LineState.MODIFIED


@dataclass(slots=True)
class DirectoryEntry:
    """Sharer/owner bookkeeping for one line."""

    state: LineState = LineState.INVALID
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)

    def has_copy(self, core: int) -> bool:
        return core in self.sharers or core == self.owner


class Directory:
    """Per-line directory for the whole chip (lines are homed by address)."""

    STATE = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, line: int) -> DirectoryEntry:
        entry = self._entries.get(line)
        if entry is None:
            entry = self._entries[line] = DirectoryEntry()
        return entry

    def lookup(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    # --------------------------------------------------------- transitions
    def record_read(
        self, line: int, core: int, entry: Optional[DirectoryEntry] = None
    ) -> DirectoryEntry:
        """Core obtains a shared copy.  A dirty owner (if any) is downgraded.

        Callers that already hold the line's entry pass it to skip the
        second lookup (the entry dict probe sits on the per-access hot path).
        """
        if entry is None:
            entry = self.entry(line)
        if entry.state is _MODIFIED and entry.owner is not None:
            entry.sharers.add(entry.owner)
            entry.owner = None
        entry.sharers.add(core)
        entry.state = _SHARED
        return entry

    def record_write(
        self, line: int, core: int, entry: Optional[DirectoryEntry] = None
    ) -> DirectoryEntry:
        """Core obtains exclusive ownership; all other copies are invalidated."""
        if entry is None:
            entry = self.entry(line)
        entry.sharers = set()
        entry.owner = core
        entry.state = _MODIFIED
        return entry

    def invalidation_targets(
        self, line: int, requester: int, entry: Optional[DirectoryEntry] = None
    ) -> Set[int]:
        """Cores whose copies must be invalidated before ``requester`` writes."""
        if entry is None:
            entry = self.entry(line)
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        targets.discard(requester)
        return targets

    def evict(self, line: int, core: int) -> None:
        """A core silently dropped its copy (L1 eviction)."""
        entry = self._entries.get(line)
        if entry is None:
            return
        entry.sharers.discard(core)
        if entry.owner == core:
            entry.owner = None
            entry.state = _SHARED if entry.sharers else _INVALID
        elif not entry.sharers and entry.owner is None:
            entry.state = _INVALID

    def sharer_count(self, line: int) -> int:
        entry = self._entries.get(line)
        if entry is None:
            return 0
        count = len(entry.sharers)
        if entry.owner is not None and entry.owner not in entry.sharers:
            count += 1
        return count

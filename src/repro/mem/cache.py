"""Set-associative cache tag array with LRU replacement.

Only tags are modelled (values live in the shared functional store of the
memory system); the array answers hit/miss queries and produces victims on
fills, which is all the timing model needs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


class CacheArray:
    """A tag array with ``num_sets`` sets of ``associativity`` ways (LRU)."""

    STATE = ("_sets",)
    REBUILT = ("num_sets", "associativity", "line_bytes", "name")

    def __init__(self, num_sets: int, associativity: int, line_bytes: int, name: str = "cache") -> None:
        if num_sets <= 0 or associativity <= 0:
            raise ConfigurationError("cache geometry must be positive")
        self.num_sets = num_sets
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.name = name
        # set index -> OrderedDict(line_number -> True), most recent last
        self._sets: Dict[int, OrderedDict] = {}

    # ------------------------------------------------------------------ api
    # The set probe (line % num_sets, get-or-create) is inlined in each
    # method: lookup/fill run once per modelled memory access, and a helper
    # call was pure overhead.  Only fill creates sets; the read-only paths
    # treat a missing set as a miss.
    def lookup(self, line: int, touch: bool = True) -> bool:
        """Return True on hit; update LRU order when ``touch`` is set."""
        entries = self._sets.get(line % self.num_sets)
        if entries is not None and line in entries:
            if touch:
                entries.move_to_end(line)
            return True
        return False

    def contains(self, line: int) -> bool:
        """Hit/miss check without disturbing LRU order."""
        entries = self._sets.get(line % self.num_sets)
        return entries is not None and line in entries

    def fill(self, line: int) -> Optional[int]:
        """Insert a line; return the evicted line number if one was displaced."""
        index = line % self.num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        victim = None
        if line in entries:
            entries.move_to_end(line)
            return None
        if len(entries) >= self.associativity:
            victim, _ = entries.popitem(last=False)
        entries[line] = True
        return victim

    def invalidate(self, line: int) -> bool:
        """Remove a line (coherence invalidation); returns True if present."""
        entries = self._sets.get(line % self.num_sets)
        if entries is not None and line in entries:
            del entries[line]
            return True
        return False

    def resident_lines(self) -> List[int]:
        lines: List[int] = []
        for entries in self._sets.values():
            lines.extend(entries.keys())
        return lines

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets.values())

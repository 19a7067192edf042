"""Broadcast-memory entry allocation (Section 4.4).

Allocation is chunk-granular (one 64-bit entry per chunk) so that multiple
programs can share physical pages without page-level fragmentation.  When
the BM runs out of space, further variables are transparently allocated in
regular cached memory and accessed through the wired network — the fallback
the paper uses for dedup and fluidanimate, whose lock arrays exceed 16 KB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.config import BroadcastMemoryConfig
from repro.errors import AllocationError


@dataclass(frozen=True)
class BmAllocation:
    """Result of an allocation request."""

    base_addr: int
    words: int
    pid: int
    spilled: bool = False

    @property
    def addresses(self) -> List[int]:
        return list(range(self.base_addr, self.base_addr + self.words))


@dataclass
class BmAllocator:
    """First-fit allocator over the BM entry space with spill-over support.

    Spilled allocations are given addresses at or above ``spill_base`` (one
    past the last physical BM entry); callers route accesses to such
    addresses through the cached-memory hierarchy instead of the wireless
    network.
    """

    STATE = ("_owner", "_free_spill_addr", "_per_pid", "spilled_allocations")
    REBUILT = ("config",)

    config: BroadcastMemoryConfig
    _owner: Dict[int, int] = field(default_factory=dict)       # addr -> pid
    _free_spill_addr: int = field(default=-1)
    _per_pid: Dict[int, Set[int]] = field(default_factory=dict)
    spilled_allocations: int = 0

    def __post_init__(self) -> None:
        if self._free_spill_addr < 0:
            self._free_spill_addr = self.spill_base

    @property
    def capacity(self) -> int:
        return self.config.num_entries

    @property
    def spill_base(self) -> int:
        return self.config.num_entries

    @property
    def allocated_count(self) -> int:
        return len(self._owner)

    def is_spilled(self, addr: int) -> bool:
        return addr >= self.spill_base

    def owner_of(self, addr: int) -> Optional[int]:
        return self._owner.get(addr)

    # ------------------------------------------------------------ allocation
    def allocate(self, pid: int, words: int = 1, allow_spill: bool = True) -> BmAllocation:
        """Allocate ``words`` consecutive entries for ``pid``.

        Falls back to spill addresses when the BM cannot hold the request and
        ``allow_spill`` is set; raises :class:`AllocationError` otherwise.
        """
        if words < 1:
            raise AllocationError("allocation must request at least one word")
        base = self._find_free_run(words)
        if base is not None:
            for addr in range(base, base + words):
                self._owner[addr] = pid
            self._per_pid.setdefault(pid, set()).update(range(base, base + words))
            return BmAllocation(base_addr=base, words=words, pid=pid, spilled=False)
        if not allow_spill:
            raise AllocationError(
                f"broadcast memory full: cannot allocate {words} entries for process {pid}"
            )
        base = self._free_spill_addr
        self._free_spill_addr += words
        self.spilled_allocations += 1
        self._per_pid.setdefault(pid, set()).update(range(base, base + words))
        return BmAllocation(base_addr=base, words=words, pid=pid, spilled=True)

    def free(self, pid: int, base_addr: int, words: int = 1) -> None:
        """Release an allocation (spilled ranges are simply forgotten)."""
        owned = self._per_pid.get(pid, set())
        for addr in range(base_addr, base_addr + words):
            if addr < self.spill_base:
                if self._owner.get(addr) != pid:
                    raise AllocationError(
                        f"process {pid} cannot free BM entry {addr} it does not own"
                    )
                del self._owner[addr]
            owned.discard(addr)

    def free_all(self, pid: int) -> int:
        """Release every allocation of a terminating process; returns count."""
        owned = self._per_pid.pop(pid, set())
        released = 0
        for addr in owned:
            if addr < self.spill_base and self._owner.get(addr) == pid:
                del self._owner[addr]
                released += 1
        return released

    # ------------------------------------------------------------- internals
    def _find_free_run(self, words: int) -> Optional[int]:
        """First-fit search for ``words`` consecutive free entries."""
        run_start = 0
        run_length = 0
        for addr in range(self.capacity):
            if addr in self._owner:
                run_start = addr + 1
                run_length = 0
                continue
            run_length += 1
            if run_length >= words:
                return run_start
        return None

"""The Broadcast Memory (BM).

Every node has a small (default 16 KB) memory holding the program variables
declared ``broadcast``.  All BMs hold the exact same, replicated contents and
are kept consistent by the wireless Data channel, which provides a chip-wide
total order of writes (Section 3.1).  Because the contents are identical on
every node at all times, this class models the *replicated contents once*;
per-node state that genuinely differs between nodes (Armed/Arrived bits,
WCB/AFB) lives in the per-node controllers.

Each 64-bit entry is tagged with the PID of the process that allocated it
(Section 4.4), and those tags are the only record of who owns what.
Allocation is chunk-granular (one entry per chunk), so programs share
physical pages without page-level fragmentation.  When the BM runs out of
space, further variables are transparently placed in regular cached memory
and accessed through the wired network — the fallback the paper uses for
dedup and fluidanimate, whose lock arrays exceed 16 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.config import BroadcastMemoryConfig
from repro.errors import AllocationError, MemoryError_, ProtectionError


@dataclass
class BmEntry:
    """One 64-bit BM entry with its protection tag."""

    value: int = 0
    pid: Optional[int] = None
    allocated: bool = False
    tone_capable: bool = False


@dataclass(frozen=True)
class BmAllocation:
    """Result of an allocation request."""

    base_addr: int
    words: int
    pid: int
    spilled: bool = False


class BroadcastMemory:
    """Replicated broadcast-memory contents, per-entry PID tags, and the
    first-fit allocator over those tags."""

    STATE = ("_entries", "_next_spill")
    REBUILT = ("config", "_value_mask", "spill_base")

    def __init__(self, config: BroadcastMemoryConfig) -> None:
        self.config = config
        self._entries: Dict[int, BmEntry] = {}
        self._value_mask = (1 << config.entry_bits) - 1
        #: One past the last physical entry: spilled allocations get
        #: addresses from here up, and callers route accesses to them
        #: through the cached-memory hierarchy.
        self.spill_base = config.num_entries
        self._next_spill = self.spill_base

    # ------------------------------------------------------------ structure
    def entry(self, addr: int) -> BmEntry:
        entry = self._entries.get(addr)
        if entry is None:
            self._check_addr(addr)
            entry = self._entries[addr] = BmEntry()
        return entry

    def allocated_entries(self) -> Iterator[int]:
        return iter(sorted(addr for addr, e in self._entries.items() if e.allocated))

    def allocated_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.allocated)

    # ------------------------------------------------------------ allocation
    def allocate(self, pid: int, words: int = 1, tone_capable: bool = False) -> BmAllocation:
        """Tag the first run of ``words`` free entries as owned by ``pid``
        (performed in every BM at once).

        Only the first entry of a tone-capable allocation is tone capable.
        When no free run is long enough, the allocation spills.
        """
        if words < 1:
            raise AllocationError("allocation must request at least one word")
        base = self._first_free_run(words)
        if base is None:
            base = self._next_spill
            self._next_spill += words
            return BmAllocation(base, words, pid, spilled=True)
        for addr in range(base, base + words):
            entry = self.entry(addr)
            entry.allocated = True
            entry.pid = pid
            entry.tone_capable = tone_capable and addr == base
            entry.value = 0
        return BmAllocation(base, words, pid)

    def free(self, pid: int, base_addr: int, words: int = 1) -> None:
        """Release an allocation; a spilled one is simply forgotten.

        Every entry is checked before any is released, so a rejected free
        changes nothing.
        """
        if words < 1:
            raise AllocationError("a free must release at least one word")
        if base_addr >= self.spill_base:
            return
        addrs = range(base_addr, base_addr + words)
        for addr in addrs:
            entry = self.entry(addr)
            if not entry.allocated:
                raise MemoryError_(f"BM entry {addr} is not allocated")
            if entry.pid != pid:
                raise ProtectionError(
                    f"process {pid} cannot free BM entry {addr} owned by process {entry.pid}"
                )
        for addr in addrs:
            self._entries[addr] = BmEntry()

    # --------------------------------------------------------------- access
    def read(self, addr: int, pid: Optional[int] = None) -> int:
        """Protected read of an entry's 64-bit value."""
        entry = self.entry(addr)
        self._check_protection(addr, entry, pid)
        return entry.value

    def write(self, addr: int, value: int, pid: Optional[int] = None) -> None:
        """Protected write (invoked when a broadcast completes)."""
        entry = self.entry(addr)
        self._check_protection(addr, entry, pid)
        entry.value = value & self._value_mask

    def toggle(self, addr: int) -> int:
        """Hardware toggle used by the tone controller at barrier completion.

        The location can only take the values zero and non-zero
        (Section 4.2.2); toggling maps 0 -> 1 and non-zero -> 0.
        """
        entry = self.entry(addr)
        entry.value = 0 if entry.value else 1
        return entry.value

    def is_tone_capable(self, addr: int) -> bool:
        return self.entry(addr).tone_capable

    def owner_pid(self, addr: int) -> Optional[int]:
        return self.entry(addr).pid

    # ------------------------------------------------------------- internals
    def _first_free_run(self, words: int) -> Optional[int]:
        entries = self._entries
        run_start = 0
        for addr in range(self.spill_base):
            entry = entries.get(addr)
            if entry is not None and entry.allocated:
                run_start = addr + 1
            elif addr + 1 - run_start >= words:
                return run_start
        return None

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.config.num_entries:
            raise MemoryError_(
                f"BM address {addr} out of range (BM has {self.config.num_entries} entries)"
            )

    def _check_protection(self, addr: int, entry: BmEntry, pid: Optional[int]) -> None:
        if pid is None:
            return
        if not entry.allocated:
            raise ProtectionError(f"process {pid} accessed unallocated BM entry {addr}")
        if entry.pid != pid:
            raise ProtectionError(
                f"PID mismatch on BM entry {addr}: tag={entry.pid}, accessor={pid}"
            )

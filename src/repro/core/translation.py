"""TLB-based broadcast-memory address translation (Section 4.4).

Programs address the BM through virtual addresses translated page-by-page in
the TLB, but — to avoid page-level fragmentation in such a small memory —
different programs share physical BM pages and own non-overlapping 64-bit
chunks of them.  Protection is enforced by comparing the accessing process's
PID to the per-chunk PID tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import BroadcastMemoryConfig
from repro.errors import TranslationError


@dataclass(frozen=True)
class PageMapping:
    """One TLB entry: a virtual BM page mapped to a physical BM page."""

    pid: int
    virtual_page: int
    physical_page: int
    writable: bool = True


@dataclass
class BmTlb:
    """Per-process page table plus a flat TLB model for the BM address space.

    Virtual BM addresses are entry-granular: virtual address ``v`` of process
    ``p`` is split into a virtual page number (``v // entries_per_page``) and
    an offset within the page.  The translation only remaps the page; chunk
    ownership inside the physical page is enforced separately by the PID tags
    in :class:`~repro.core.broadcast_memory.BroadcastMemory`.
    """

    STATE = ("_mappings", "hits", "misses")
    REBUILT = ("config",)

    config: BroadcastMemoryConfig
    _mappings: Dict[Tuple[int, int], PageMapping] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    @property
    def entries_per_page(self) -> int:
        return self.config.entries_per_page

    def map_page(self, pid: int, virtual_page: int, physical_page: int, writable: bool = True) -> PageMapping:
        if not 0 <= physical_page < self.config.num_pages:
            raise TranslationError(
                f"physical BM page {physical_page} out of range (BM has {self.config.num_pages} pages)"
            )
        mapping = PageMapping(pid=pid, virtual_page=virtual_page,
                              physical_page=physical_page, writable=writable)
        self._mappings[(pid, virtual_page)] = mapping
        return mapping

    def unmap_page(self, pid: int, virtual_page: int) -> None:
        self._mappings.pop((pid, virtual_page), None)

    def mappings_for(self, pid: int) -> List[PageMapping]:
        return [m for (p, _), m in self._mappings.items() if p == pid]

    def translate(self, pid: int, virtual_addr: int, for_write: bool = False) -> int:
        """Translate a virtual BM entry address to a physical BM entry address."""
        virtual_page = virtual_addr // self.entries_per_page
        offset = virtual_addr % self.entries_per_page
        mapping = self._mappings.get((pid, virtual_page))
        if mapping is None:
            self.misses += 1
            raise TranslationError(
                f"process {pid} has no BM mapping for virtual page {virtual_page}"
            )
        if for_write and not mapping.writable:
            raise TranslationError(
                f"process {pid} attempted to write read-only BM page {virtual_page}"
            )
        self.hits += 1
        return mapping.physical_page * self.entries_per_page + offset

    def reverse_translate(self, pid: int, physical_addr: int) -> Optional[int]:
        """Find the virtual address of a physical entry for ``pid`` (if mapped)."""
        physical_page = physical_addr // self.entries_per_page
        offset = physical_addr % self.entries_per_page
        for (p, virtual_page), mapping in self._mappings.items():
            if p == pid and mapping.physical_page == physical_page:
                return virtual_page * self.entries_per_page + offset
        return None

"""Thread placement, preemption, and migration.

Section 5.2: threads may be preempted and rescheduled freely because the BM
state is identical in every node; threads may also migrate to another core —
*unless* they participate in a tone barrier, because the Armed bit of the
AllocB entry lives in the node's tone controller and would have to be
migrated with them.  Two threads on the same core may not use the same tone
barrier either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError, ToneBarrierError


@dataclass
class ThreadPlacement:
    """Where a thread runs and which tone barriers it participates in."""

    thread_id: int
    core_id: int
    pid: int
    tone_barriers: Set[int] = field(default_factory=set)
    preempted: bool = False


class Scheduler:
    """Simple placement-tracking scheduler with WiSync's migration rules."""

    STATE = ("_placements", "_core_load", "migrations", "preemptions")
    REBUILT = ("num_cores",)

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._placements: Dict[int, ThreadPlacement] = {}
        self._core_load: Dict[int, int] = {core: 0 for core in range(num_cores)}
        self.migrations = 0
        self.preemptions = 0

    # -------------------------------------------------------------- placing
    def place(self, thread_id: int, pid: int, core_id: Optional[int] = None) -> ThreadPlacement:
        """Place a new thread, round-robin by load when no core is given."""
        if core_id is None:
            core_id = min(self._core_load, key=lambda c: (self._core_load[c], c))
        if not 0 <= core_id < self.num_cores:
            raise ConfigurationError(f"core {core_id} out of range")
        placement = ThreadPlacement(thread_id=thread_id, core_id=core_id, pid=pid)
        self._placements[thread_id] = placement
        self._core_load[core_id] += 1
        return placement

    def placement(self, thread_id: int) -> ThreadPlacement:
        return self._placements[thread_id]

    def threads_on(self, core_id: int) -> List[int]:
        return [t for t, p in self._placements.items() if p.core_id == core_id]

    # --------------------------------------------------------- tone barriers
    def register_tone_barrier(self, thread_id: int, bm_addr: int) -> None:
        """Record tone-barrier participation (restricts migration and sharing)."""
        placement = self._placements[thread_id]
        for other_id in self.threads_on(placement.core_id):
            if other_id == thread_id:
                continue
            other = self._placements[other_id]
            if bm_addr in other.tone_barriers:
                raise ToneBarrierError(
                    f"threads {thread_id} and {other_id} on core {placement.core_id} "
                    f"cannot both use tone barrier {bm_addr}"
                )
        placement.tone_barriers.add(bm_addr)

    # ----------------------------------------------------- preempt / migrate
    def preempt(self, thread_id: int) -> None:
        """Preemption is always legal: BM updates keep arriving while descheduled."""
        placement = self._placements[thread_id]
        placement.preempted = True
        self.preemptions += 1

    def resume(self, thread_id: int) -> None:
        self._placements[thread_id].preempted = False

    def can_migrate(self, thread_id: int) -> bool:
        """A thread participating in any tone barrier cannot migrate."""
        return not self._placements[thread_id].tone_barriers

    def migrate(self, thread_id: int, new_core: int) -> ThreadPlacement:
        placement = self._placements[thread_id]
        if placement.tone_barriers:
            raise ToneBarrierError(
                f"thread {thread_id} participates in tone barriers "
                f"{sorted(placement.tone_barriers)} and cannot migrate"
            )
        if not 0 <= new_core < self.num_cores:
            raise ConfigurationError(f"core {new_core} out of range")
        self._core_load[placement.core_id] -= 1
        self._core_load[new_core] += 1
        placement.core_id = new_core
        self.migrations += 1
        return placement

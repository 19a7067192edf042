"""Per-core accounting.

Cores do not model individual instructions; they account for the cycles each
thread spends computing versus waiting on memory or synchronization, which is
what the evaluation reports (execution time, throughput, channel utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import CoreConfig
from repro.errors import WorkloadError


@dataclass
class Core:
    """One core of the manycore: occupancy and simple accounting."""

    STATE = (
        "busy_cycles", "memory_stall_cycles", "sync_stall_cycles",
        "instructions_retired", "current_thread",
    )
    REBUILT = ("core_id", "config")

    core_id: int
    config: CoreConfig
    busy_cycles: int = 0
    memory_stall_cycles: int = 0
    sync_stall_cycles: int = 0
    instructions_retired: int = 0
    current_thread: Optional[int] = None

    def run_compute(self, cycles: int) -> int:
        """Account for a compute phase; returns the cycles consumed.

        The 2-issue core retires roughly two instructions per cycle, but
        workloads already express compute phases in cycles, so the phase
        length is charged as-is and the instruction count is derived.
        """
        if cycles < 0:
            raise WorkloadError("compute cycles must be non-negative")
        self.busy_cycles += cycles
        self.instructions_retired += cycles * self.config.issue_width
        return cycles

    def add_memory_stall(self, cycles: int) -> None:
        self.memory_stall_cycles += max(0, cycles)

    def add_sync_stall(self, cycles: int) -> None:
        self.sync_stall_cycles += max(0, cycles)

    @property
    def total_accounted_cycles(self) -> int:
        return self.busy_cycles + self.memory_stall_cycles + self.sync_stall_cycles

    def utilization(self, total_cycles: int) -> float:
        """Fraction of cycles spent computing rather than stalled."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

"""Off-chip DRAM model: four memory controllers with a fixed round trip.

The paper charges a 110-cycle round trip to off-chip memory.  Controllers
serialize requests, providing a mild bandwidth limit that matters only for
cache-cold phases of the workloads.
"""

from __future__ import annotations

from typing import Dict

from repro.config import MemoryConfig
from repro.sim.stats import StatsRegistry


class DramModel:
    """Latency model for the off-chip memory behind the controllers."""

    #: Cycles a controller is occupied per request (burst transfer of a line).
    CONTROLLER_OCCUPANCY = 4

    STATE = ("_controller_free",)
    REBUILT = ("config", "stats", "_accesses_counter")

    def __init__(self, config: MemoryConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self._controller_free: Dict[int, int] = {}
        self._accesses_counter = stats.counter("dram/accesses")

    def access(self, now: int, controller: int) -> int:
        """Issue a line fetch at cycle ``now``; return its completion cycle."""
        controller = controller % self.config.controllers
        start = max(now, self._controller_free.get(controller, 0))
        self._controller_free[controller] = start + self.CONTROLLER_OCCUPANCY
        self._accesses_counter.add()
        return start + self.config.dram_round_trip

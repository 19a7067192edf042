"""The wireless Tone channel (Sections 4.1, 4.2.2 and 5.1).

Nodes do not send data on this channel — only a presence tone.  The channel
is slotted at one cycle and the slots are assigned round-robin to the
currently *active* tone barriers, so several barriers can share the channel.
For a given barrier, every armed node that has not yet arrived keeps emitting
a tone in the barrier's slots; when the channel falls silent in one of those
slots, every node knows that all participants have arrived and toggles the
corresponding Broadcast-Memory location.

This module models the channel-level behaviour: who is emitting a tone for
which barrier, and when silence is detected.  The per-node AllocB/ActiveB
bookkeeping lives in :mod:`repro.core.tone_controller`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.config import ToneChannelConfig
from repro.errors import ToneBarrierError
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


@dataclass
class _ActiveBarrier:
    """Channel-side state of one active tone barrier."""

    bm_addr: int
    activated_at: int
    emitting: Set[int] = field(default_factory=set)
    generation: int = 0


class ToneChannel:
    """Slot-multiplexed tone channel with silence detection."""

    STATE = ("_active", "_active_order")
    REBUILT = (
        "sim", "config", "stats", "_completion_listeners",
        "_activations_counter", "_completions_counter",
    )

    def __init__(
        self,
        sim: Simulator,
        config: ToneChannelConfig,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self._active: Dict[int, _ActiveBarrier] = {}
        #: Active barrier addresses in activation order (slot assignment order).
        self._active_order: List[int] = []
        self._completion_listeners: List[Callable[[int, int], None]] = []
        self._activations_counter = self.stats.counter("tone/activations")
        self._completions_counter = self.stats.counter("tone/completions")

    # ------------------------------------------------------------ listeners
    def add_completion_listener(self, callback: Callable[[int, int], None]) -> None:
        """``callback(bm_addr, detection_cycle)`` fires when a barrier completes."""
        self._completion_listeners.append(callback)

    # ----------------------------------------------------------------- state
    @property
    def active_barrier_count(self) -> int:
        return len(self._active_order)

    def is_active(self, bm_addr: int) -> bool:
        return bm_addr in self._active

    # ------------------------------------------------------------ operations
    def activate(self, bm_addr: int, emitters: Set[int]) -> None:
        """A barrier becomes active: ``emitters`` start issuing tones.

        Called when the first-arrival message is delivered on the Data
        channel.  ``emitters`` is the set of armed nodes that have not yet
        arrived; it may legitimately be empty (everyone arrived while the
        activation message was in flight), in which case the barrier
        completes immediately.
        """
        if not self.config.enabled:
            raise ToneBarrierError("tone channel is disabled in this configuration")
        if bm_addr in self._active:
            raise ToneBarrierError(f"tone barrier at BM address {bm_addr} is already active")
        barrier = _ActiveBarrier(bm_addr=bm_addr, activated_at=self.sim.now, emitting=set(emitters))
        self._active[bm_addr] = barrier
        self._active_order.append(bm_addr)
        self._activations_counter.add()
        if not barrier.emitting:
            self._schedule_completion(barrier)

    def stop_tone(self, bm_addr: int, node: int) -> None:
        """``node`` arrives at the barrier and stops emitting its tone."""
        barrier = self._active.get(bm_addr)
        if barrier is None:
            raise ToneBarrierError(f"no active tone barrier at BM address {bm_addr}")
        barrier.emitting.discard(node)
        if not barrier.emitting:
            self._schedule_completion(barrier)

    # ------------------------------------------------------------- internals
    def detection_latency(self) -> int:
        """Cycles from channel silence to every node observing it.

        With ``k`` active barriers sharing the channel round-robin, the slot
        belonging to a given barrier recurs every ``k`` slots, so silence is
        observed within ``k`` slots plus one listening slot.
        """
        active = max(1, len(self._active_order))
        return active * self.config.slot_cycles + self.config.slot_cycles

    def _schedule_completion(self, barrier: _ActiveBarrier) -> None:
        latency = self.detection_latency()
        generation = barrier.generation
        self.sim.schedule(latency, self._complete, barrier.bm_addr, generation)

    def _complete(self, bm_addr: int, generation: int) -> None:
        barrier = self._active.get(bm_addr)
        if barrier is None or barrier.generation != generation:
            return
        if barrier.emitting:
            # A racing emitter re-appeared before detection (should not happen
            # with the protocol as modelled, but guard against it).
            return
        del self._active[bm_addr]
        self._active_order.remove(bm_addr)
        self._completions_counter.add()
        detection_cycle = self.sim.now
        for listener in self._completion_listeners:
            listener(bm_addr, detection_cycle)

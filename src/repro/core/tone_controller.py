"""Per-node tone controller with its AllocB and ActiveB tables (Section 5.1).

``AllocB`` holds every allocated tone-barrier variable together with a local
*Armed* bit (will a thread on this core participate?).  ``ActiveB`` holds the
currently active tone barriers with a local *Arrived* bit.  The tables have
the same contents (apart from the Armed/Arrived bits) in every node, which is
what lets all nodes agree on the round-robin assignment of Tone-channel slots
to active barriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.config import ToneChannelConfig
from repro.errors import ToneBarrierError
from repro.wireless.channel import WirelessMessage
from repro.wireless.tone import ToneChannel
from repro.wireless.transceiver import Transceiver


@dataclass
class AllocBEntry:
    """Allocated tone barrier: BM address plus the local Armed bit."""

    bm_addr: int
    armed: bool = False


@dataclass
class ActiveBEntry:
    """Active tone barrier: BM address plus the local Arrived bit."""

    bm_addr: int
    arrived: bool = False


class ToneController:
    """Hardware tone-barrier participation logic of one node."""

    STATE = ("alloc_b", "active_b", "_arrived_early")
    REBUILT = ("node_id", "tone_channel", "transceiver", "config")

    def __init__(
        self,
        node_id: int,
        tone_channel: Optional[ToneChannel],
        transceiver: Transceiver,
        config: ToneChannelConfig,
    ) -> None:
        self.node_id = node_id
        self.tone_channel = tone_channel
        self.transceiver = transceiver
        self.config = config
        self.alloc_b: Dict[int, AllocBEntry] = {}
        self.active_b: Dict[int, ActiveBEntry] = {}
        #: Arrivals observed before the activation message was delivered.
        self._arrived_early: Set[int] = set()

    # ------------------------------------------------------------ allocation
    def allocate_barrier(self, bm_addr: int, armed: bool) -> None:
        """Create the AllocB entry for a newly allocated tone barrier variable."""
        if len(self.alloc_b) >= self.config.table_entries:
            raise ToneBarrierError(
                f"AllocB overflow on node {self.node_id} "
                f"(capacity {self.config.table_entries})"
            )
        if bm_addr in self.alloc_b:
            raise ToneBarrierError(f"tone barrier {bm_addr} already allocated on node {self.node_id}")
        self.alloc_b[bm_addr] = AllocBEntry(bm_addr=bm_addr, armed=armed)

    def deallocate_barrier(self, bm_addr: int) -> None:
        self.alloc_b.pop(bm_addr, None)
        self.active_b.pop(bm_addr, None)
        self._arrived_early.discard(bm_addr)

    def is_armed(self, bm_addr: int) -> bool:
        entry = self.alloc_b.get(bm_addr)
        return bool(entry and entry.armed)

    # --------------------------------------------------------------- arrival
    def arrive(self, bm_addr: int) -> bool:
        """Handle a local ``tone_st``: returns True if this node initiated the barrier.

        If a tone is currently being issued for this address the local core
        is not the first to arrive, so the controller just stops the tone.
        Otherwise this core is (locally) the first arrival and sends the
        activation message on the Data channel.
        """
        if bm_addr not in self.alloc_b:
            raise ToneBarrierError(
                f"tone_st on node {self.node_id} for unallocated tone barrier {bm_addr}"
            )
        active = self.active_b.get(bm_addr)
        if active is not None:
            if not active.arrived:
                active.arrived = True
                if self.tone_channel is not None and self.is_armed(bm_addr):
                    self.tone_channel.stop_tone(bm_addr, self.node_id)
            return False
        if bm_addr in self._arrived_early:
            # Already signalled arrival while the activation is still in flight.
            return False
        self._arrived_early.add(bm_addr)
        self.transceiver.send_tone_init(bm_addr, self._activation_sent)
        return True

    def _activation_sent(self, message: WirelessMessage, cycle: int) -> None:
        """The activation message's own hook does nothing: the fabric's
        delivery listener activates the barrier on every node."""

    # ------------------------------------------------------------ activation
    def on_barrier_activated(self, bm_addr: int) -> bool:
        """Activation message delivered: copy AllocB -> ActiveB.

        Returns True when this node will emit a tone (it is armed and has not
        arrived yet); the fabric collects these to seed the tone channel.
        """
        entry = self.alloc_b.get(bm_addr)
        if entry is None:
            # This node does not know the barrier (no thread of that program
            # here); it simply does not participate.
            return False
        arrived_early = bm_addr in self._arrived_early
        self._arrived_early.discard(bm_addr)
        if not entry.armed:
            self.active_b[bm_addr] = ActiveBEntry(bm_addr=bm_addr, arrived=True)
            return False
        self.active_b[bm_addr] = ActiveBEntry(bm_addr=bm_addr, arrived=arrived_early)
        return not arrived_early

    def on_barrier_complete(self, bm_addr: int) -> None:
        """Silence detected: the barrier is over, remove it from ActiveB."""
        self.active_b.pop(bm_addr, None)
        self._arrived_early.discard(bm_addr)

"""The broadcast fabric: everything the wireless network keeps consistent.

``BroadcastFabric`` owns the replicated Broadcast Memory (which allocates its
own entries), the Data and Tone channels, and the per-node hardware bundles.
It is the single point through which BM values change, which is what gives
broadcast writes their chip-wide total order (Section 3.1, Figure 1) and what
lets the fabric implement the Atomicity Failure Bit and the tone-barrier
protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import MachineConfig
from repro.core.bm_controller import BmController
from repro.core.broadcast_memory import BmAllocation, BroadcastMemory
from repro.core.node import WiSyncNode
from repro.core.tone_controller import ToneController
from repro.errors import WirelessError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatsRegistry
from repro.wireless.backoff import make_backoff
from repro.wireless.channel import DataChannel, WirelessMessage
from repro.wireless.tone import ToneChannel
from repro.wireless.transceiver import Transceiver


class _Waiter:
    __slots__ = ("predicate", "callback")

    def __init__(
        self, predicate: Callable[[int], bool], callback: Callable[[int], None]
    ) -> None:
        self.predicate = predicate
        self.callback = callback


class _PendingRmw:
    """An open RMW window, and the issuing node's ticket for it."""

    __slots__ = ("node", "addr", "failed", "consumed", "on_fail")

    def __init__(
        self, node: int, addr: int, on_fail: Optional[Callable[[], None]] = None
    ) -> None:
        self.node = node
        self.addr = addr
        self.failed = False
        self.consumed = False
        self.on_fail = on_fail


class BroadcastFabric:
    """Chip-wide wireless synchronization fabric."""

    STATE = (
        "memory", "data_channel", "tone_channel", "nodes", "_waiters",
        "_pending_by_addr",
    )
    REBUILT = ("sim", "config", "stats", "rng", "_writes_applied_counter")

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        stats: Optional[StatsRegistry] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.rng = rng if rng is not None else DeterministicRng(config.seed, "fabric")
        self.memory = BroadcastMemory(config.bm)
        self.data_channel = DataChannel(sim, config.data_channel, self.stats)
        self.tone_channel: Optional[ToneChannel] = None
        if config.tone_channel.enabled:
            self.tone_channel = ToneChannel(sim, config.tone_channel, self.stats)
            self.tone_channel.add_completion_listener(self._on_tone_complete)
        self.data_channel.add_listener(self._on_message_delivered)
        self.nodes: List[WiSyncNode] = []
        self._waiters: Dict[int, List[_Waiter]] = {}
        #: The open RMW windows per address, in registration order, which is
        #: the order failures are notified in.
        self._pending_by_addr: Dict[int, List[_PendingRmw]] = {}
        # Flyweight stat handles for the per-broadcast-write hot path.
        self._writes_applied_counter = self.stats.counter("bm/writes_applied")

    # -------------------------------------------------------------- assembly
    def create_node(self, node_id: int) -> WiSyncNode:
        """Instantiate the WiSync hardware bundle for one core."""
        backoff = make_backoff(self.config.backoff, self.rng.child(f"mac{node_id}"))
        transceiver = Transceiver(
            node_id=node_id,
            channel=self.data_channel,
            backoff=backoff,
            config=self.config.data_channel,
            stats=self.stats,
        )
        bm_controller = BmController(node_id, self, transceiver, self.config.bm)
        tone_controller = ToneController(
            node_id, self.tone_channel, transceiver, self.config.tone_channel
        )
        node = WiSyncNode(
            node_id=node_id,
            transceiver=transceiver,
            bm_controller=bm_controller,
            tone_controller=tone_controller,
        )
        self.nodes.append(node)
        return node

    # ------------------------------------------------------------ allocation
    def allocate(
        self,
        pid: int,
        words: int = 1,
        tone_capable: bool = False,
        participants: Optional[Sequence[int]] = None,
    ) -> BmAllocation:
        """Allocate BM entries in every BM and, if requested, a tone barrier.

        Tone-capable allocations create an AllocB entry in every node's tone
        controller; the entry is armed on the nodes listed in
        ``participants`` (Section 4.4: the runtime must know the
        participants of a tone barrier in advance).
        """
        allocation = self.memory.allocate(pid, words, tone_capable)
        if allocation.spilled:
            self.stats.counter("bm/spilled_allocations").add()
            return allocation
        if tone_capable:
            if self.tone_channel is None:
                raise WirelessError("tone barrier allocation requires the tone channel")
            armed_set = set(participants) if participants is not None else set(range(len(self.nodes)))
            for node in self.nodes:
                node.tone_controller.allocate_barrier(
                    allocation.base_addr, armed=node.node_id in armed_set
                )
        self.stats.counter("bm/allocations").add()
        return allocation

    def free(self, pid: int, base_addr: int, words: int = 1) -> None:
        tone_capable = not self.is_spilled(base_addr) and self.memory.is_tone_capable(base_addr)
        self.memory.free(pid, base_addr, words)
        if tone_capable:
            for node in self.nodes:
                node.tone_controller.deallocate_barrier(base_addr)

    def is_spilled(self, addr: int) -> bool:
        return addr >= self.memory.spill_base

    # ----------------------------------------------------------- value plane
    def apply_store(
        self,
        addr: int,
        value: int,
        sender: int,
        cycle: int,
        pid: Optional[int] = None,
    ) -> None:
        """A broadcast write performed: update the replicated BM contents.

        Every other node's pending RMW on this address loses atomicity
        (AFB), and local spinners observe the new value one BM round trip
        after delivery.
        """
        self.memory.write(addr, value, pid)
        self._writes_applied_counter.add()
        if addr in self._pending_by_addr:
            self._fail_pending(addr, sender)
        if addr in self._waiters:
            self._wake_waiters(addr, value, cycle)

    def register_pending_rmw(
        self, node: int, addr: int, on_fail: Optional[Callable[[], None]] = None
    ) -> _PendingRmw:
        """Open an RMW window on ``addr`` and return it; a broadcast write to
        ``addr`` from another node fails the window and calls ``on_fail()``."""
        pending = _PendingRmw(node, addr, on_fail)
        windows = self._pending_by_addr.get(addr)
        if windows is None:
            self._pending_by_addr[addr] = [pending]
        else:
            windows.append(pending)
        return pending

    def consume_pending_rmw(self, pending: _PendingRmw) -> bool:
        """Close an RMW window; returns whether a remote write failed it."""
        if pending.consumed:
            raise WirelessError(f"RMW window on address {pending.addr} already consumed")
        pending.consumed = True
        windows = self._pending_by_addr[pending.addr]
        windows.remove(pending)
        if not windows:
            del self._pending_by_addr[pending.addr]
        return pending.failed

    def _fail_pending(self, addr: int, sender: int) -> None:
        # A snapshot of the list, because a notified node may close its
        # window; a window closed during the walk is skipped.
        for pending in list(self._pending_by_addr[addr]):
            if pending.consumed or pending.node == sender:
                continue
            newly_failed = not pending.failed
            pending.failed = True
            if newly_failed and pending.on_fail is not None:
                # Let the issuing node's BM controller abort the now-doomed
                # broadcast (it may already be on the air, in which case the
                # abort is a no-op and the normal completion path reports AFB).
                pending.on_fail()

    # -------------------------------------------------------------- spinning
    def wait_until(
        self,
        addr: int,
        predicate: Callable[[int], bool],
        callback: Callable[[int], None],
    ) -> None:
        """Invoke ``callback(value)`` when the BM location satisfies ``predicate``.

        BM spinning is local (each node polls its own replica), so a waiter
        wakes one BM round trip after the broadcast write that satisfied it —
        no coherence traffic and no serialization among waiters.
        """
        value = self.memory.entry(addr).value
        if predicate(value):
            self.sim.schedule(self.config.bm.round_trip, callback, value)
            return
        self._waiters.setdefault(addr, []).append(_Waiter(predicate=predicate, callback=callback))

    def waiter_count(self, addr: int) -> int:
        return len(self._waiters.get(addr, []))

    def _wake_waiters(self, addr: int, value: int, cycle: int) -> None:
        waiters = self._waiters.get(addr)
        if not waiters:
            return
        # One predicate call per waiter: a Predicate is a Python-level call.
        woken: List[_Waiter] = []
        remaining: List[_Waiter] = []
        for waiter in waiters:
            if waiter.predicate(value):
                woken.append(waiter)
            else:
                remaining.append(waiter)
        if remaining:
            self._waiters[addr] = remaining
        else:
            self._waiters.pop(addr, None)
        if not woken:
            return
        delay = max(0, cycle - self.sim.now) + self.config.bm.round_trip
        schedule = self.sim.schedule
        for waiter in woken:
            schedule(delay, waiter.callback, value)

    # --------------------------------------------------------- tone barriers
    def _on_message_delivered(self, message: WirelessMessage, cycle: int) -> None:
        if not message.tone_bit:
            return
        self._activate_tone_barrier(message.bm_addr, message.sender, cycle)

    def _activate_tone_barrier(self, addr: int, sender: int, cycle: int) -> None:
        if self.tone_channel is None:
            return
        if self.tone_channel.is_active(addr):
            # A redundant activation from a racing near-simultaneous first
            # arrival; the barrier is already under way.
            return
        emitters: Set[int] = set()
        for node in self.nodes:
            if node.tone_controller.on_barrier_activated(addr):
                emitters.add(node.node_id)
        self.tone_channel.activate(addr, emitters)

    def _on_tone_complete(self, addr: int, cycle: int) -> None:
        """All participants arrived: toggle the location in every BM."""
        value = self.memory.toggle(addr)
        for node in self.nodes:
            node.tone_controller.on_barrier_complete(addr)
        self.stats.counter("bm/tone_toggles").add()
        self._wake_waiters(addr, value, cycle)

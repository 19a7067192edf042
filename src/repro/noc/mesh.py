"""Transaction-level 2D mesh network timing model.

The model charges per-hop latency, serialization of multi-flit messages, and
ejection-port contention at the destination node.  Ejection contention is the
effect that matters most for the paper's results: when many requests converge
on one node (the home L2 bank of a contended lock or barrier counter), they
are served one after another, which is what makes conventional centralized
synchronization scale poorly.

Every unicast is on the simulation's hottest path (each cache miss performs
several), so the model memoizes pure functions of the topology and config —
flight latencies per (src, dst, bits) and flit counts per message size — and
binds its stat counters once instead of doing string-keyed lookups per
message.  All cached values are deterministic functions of immutable config,
so results are bit-identical to the uncached model.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import NocConfig
from repro.noc.broadcast_tree import BroadcastTree
from repro.noc.topology import MeshTopology
from repro.sim.stats import StatsRegistry


class MeshNetwork:
    """Latency/occupancy model of the wired mesh."""

    STATE = ("_ejection_free", "_injection_free")
    REBUILT = (
        "topology", "config", "stats", "tree", "_flight_cache", "_flit_cache",
        "_unicast_cache", "_messages_counter", "_flit_cycles_counter",
        "_broadcasts_counter",
    )

    def __init__(
        self,
        topology: MeshTopology,
        config: NocConfig,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self.tree = BroadcastTree(topology)
        # Earliest cycle at which each node's ejection port is free again.
        self._ejection_free: Dict[int, int] = {}
        # Earliest cycle at which each node's injection port is free again.
        self._injection_free: Dict[int, int] = {}
        # Memoized pure-function tables (lazy: only pairs actually used).
        self._flight_cache: Dict[Tuple[int, int, int], int] = {}
        self._flit_cache: Dict[int, int] = {}
        # (src, dst, bits) -> (occupancy, flight) for the unicast fast path.
        self._unicast_cache: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        # Flyweight stat handles, bound once.
        self._messages_counter = self.stats.counter("noc/messages")
        self._flit_cycles_counter = self.stats.counter("noc/flit_cycles")
        self._broadcasts_counter = self.stats.counter("noc/broadcasts")

    # -------------------------------------------------------------- caching
    def _cycles_per_flit(self, message_bits: int) -> int:
        occupancy = self._flit_cache.get(message_bits)
        if occupancy is None:
            occupancy = self._flit_cache[message_bits] = self.config.cycles_per_flit(
                message_bits
            )
        return occupancy

    # --------------------------------------------------------------- unicast
    def flight_latency(self, src: int, dst: int, message_bits: int = 128) -> int:
        """Pure wire latency of a unicast message, without port contention."""
        key = (src, dst, message_bits)
        latency = self._flight_cache.get(key)
        if latency is not None:
            return latency
        if src == dst:
            latency = self.config.router_latency
        else:
            hops = self.topology.hop_distance(src, dst)
            serialization = self._cycles_per_flit(message_bits) - 1
            latency = (
                hops * self.config.hop_latency + self.config.router_latency + serialization
            )
        self._flight_cache[key] = latency
        return latency

    def unicast(self, now: int, src: int, dst: int, message_bits: int = 128) -> int:
        """Send a message now; return its arrival cycle (with port contention)."""
        key = (src, dst, message_bits)
        cached = self._unicast_cache.get(key)
        if cached is None:
            cached = self._unicast_cache[key] = (
                self._cycles_per_flit(message_bits),
                self.flight_latency(src, dst, message_bits),
            )
        occupancy, flight = cached
        injection = self._injection_free
        inject_at = injection.get(src, 0)
        if now > inject_at:
            inject_at = now
        injection[src] = inject_at + occupancy
        arrival = inject_at + flight
        ejection = self._ejection_free
        eject_at = ejection.get(dst, 0)
        if arrival > eject_at:
            eject_at = arrival
        ejection[dst] = eject_at + occupancy
        self._messages_counter.value += 1
        self._flit_cycles_counter.value += occupancy
        return eject_at + occupancy

    def round_trip(self, now: int, src: int, dst: int, request_bits: int = 128,
                   response_bits: int = 128) -> int:
        """Request to ``dst`` plus response back to ``src``."""
        arrival = self.unicast(now, src, dst, request_bits)
        return self.unicast(arrival, dst, src, response_bits)

    # ------------------------------------------------------------- broadcast
    def broadcast(self, now: int, src: int, message_bits: int = 128) -> int:
        """Broadcast to every node; return the cycle the last copy arrives.

        With ``tree_broadcast`` (Baseline+), the source injects once and the
        routers replicate flits, so latency is the tree depth.  Without it
        (Baseline), the source injects one unicast per destination and the
        injection port serializes them.
        """
        if self.config.tree_broadcast:
            depth = self.tree.depth(src)
            serialization = self._cycles_per_flit(message_bits) - 1
            latency = depth * self.config.hop_latency + self.config.router_latency + serialization
            self._broadcasts_counter.add()
            return now + latency
        last_arrival = now
        for dst in self.topology.nodes():
            if dst == src:
                continue
            last_arrival = max(last_arrival, self.unicast(now, src, dst, message_bits))
        self._broadcasts_counter.add()
        return last_arrival

    def multicast(self, now: int, src: int, dsts, message_bits: int = 128) -> int:
        """Multicast to a destination set; returns the last arrival cycle."""
        if self.config.tree_broadcast:
            # The tree reaches everyone; latency is bounded by the tree depth.
            return self.broadcast(now, src, message_bits)
        last_arrival = now
        for dst in dsts:
            if dst == src:
                continue
            last_arrival = max(last_arrival, self.unicast(now, src, dst, message_bits))
        return last_arrival

    # ----------------------------------------------------------------- stats
    def reset_ports(self) -> None:
        """Forget port occupancy (used between independent experiment phases)."""
        self._ejection_free.clear()
        self._injection_free.clear()

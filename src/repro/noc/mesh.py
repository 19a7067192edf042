"""Transaction-level 2D mesh network timing model.

The model charges per-hop latency, serialization of multi-flit messages, and
ejection-port contention at the destination node.  Ejection contention is the
effect that matters most for the paper's results: when many requests converge
on one node (the home L2 bank of a contended lock or barrier counter), they
are served one after another, which is what makes conventional centralized
synchronization scale poorly.

Every unicast is on the simulation's hottest path (each cache miss performs
several), so the port-free times are per-node lists, and flight latencies
come from one row per (message size, source node): the latency to every
destination, computed by arithmetic the first time that row is read.  Flight
latency depends only on the hop distance, so a row also holds the latency
*back* to its source.  That is how a cache miss is timed: the memory
hierarchy reads its home bank's two rows (request and line sized) once, and
every leg of the miss, to or from the home bank, passes ``unicast`` its
flight latency from them and its flit count; ``unicast`` adds only the port
contention.  The rows are pure functions of the topology and config, so
results do not depend on when they are built.

The coherence protocol sends only unicasts.  ``broadcast`` and ``multicast``
(and with them ``NocConfig.tree_broadcast``) have no caller in the simulated
machine; they are kept as standalone models of the two broadcast schemes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import NocConfig
from repro.noc.broadcast_tree import BroadcastTree
from repro.noc.topology import MeshTopology
from repro.sim.stats import StatsRegistry


class MeshNetwork:
    """Latency/occupancy model of the wired mesh."""

    STATE = ("_inject_free_at", "_eject_free_at")
    REBUILT = (
        "topology", "config", "stats", "tree", "_flight_rows", "_messages_counter",
        "_flit_cycles_counter", "_broadcasts_counter",
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
        # Earliest cycle at which each node's injection and ejection ports
        # are free again.
        self._inject_free_at: List[int] = [0] * topology.num_nodes
        self._eject_free_at: List[int] = [0] * topology.num_nodes
        # message bits -> flight-latency row per source node (None until read)
        self._flight_rows: Dict[int, List[Optional[List[int]]]] = {}
        # Flyweight stat handles, bound once.
        self._messages_counter = self.stats.counter("noc/messages")
        self._flit_cycles_counter = self.stats.counter("noc/flit_cycles")
        self._broadcasts_counter = self.stats.counter("noc/broadcasts")

    # --------------------------------------------------------- flight rows
    def flight_row(self, src: int, message_bits: int = 128) -> List[int]:
        """Flight latency from ``src`` to each node, indexed by destination,
        without port contention.  Latency depends only on the hop distance,
        so the row is also each node's latency to ``src``.  Do not modify it."""
        try:
            rows = self._flight_rows[message_bits]
        except KeyError:
            rows = self._flight_rows[message_bits] = [None] * self.topology.num_nodes
        return rows[src] or self._build_row(rows, src, message_bits)

    def _build_row(
        self, rows: List[Optional[List[int]]], src: int, message_bits: int
    ) -> List[int]:
        """Hops times hop latency, plus the router and the trailing flits."""
        width = self.topology.width
        sx, sy = self.topology.coordinates(src)
        hop = self.config.hop_latency
        base = self.config.router_latency + self.config.cycles_per_flit(message_bits) - 1
        row = [
            base + hop * (abs(sx - dst % width) + abs(sy - dst // width))
            for dst in range(self.topology.num_nodes)
        ]
        row[src] = self.config.router_latency
        rows[src] = row
        return row

    def flight_latency(self, src: int, dst: int, message_bits: int = 128) -> int:
        """Pure wire latency of a unicast message, without port contention."""
        return self.flight_row(src, message_bits)[dst]

    # --------------------------------------------------------------- unicast
    def unicast(self, now: int, src: int, dst: int, flight: int, flits: int) -> int:
        """Send a message of ``flits`` flits from ``src`` at cycle ``now``;
        return the cycle its last flit leaves ``dst``'s ejection port.

        ``flight`` is the message's wire latency: ``flight_row(src,
        bits)[dst]``, or, latency being symmetric, ``flight_row(dst,
        bits)[src]``.  The caller reads it, so a cache miss reads its home
        bank's rows once for all its legs.  Each node's injection and
        ejection ports serve one message at a time, ``flits`` cycles each.
        """
        inject = self._inject_free_at
        start = inject[src]
        if now > start:
            start = now
        inject[src] = start + flits
        arrival = start + flight
        eject = self._eject_free_at
        free = eject[dst]
        if arrival > free:
            free = arrival
        done = eject[dst] = free + flits
        self._messages_counter.value += 1
        self._flit_cycles_counter.value += flits
        return done

    # ------------------------------------------------------------- broadcast
    def broadcast(self, now: int, src: int, message_bits: int = 128) -> int:
        """Broadcast to every node; return the cycle the last copy arrives.

        With ``tree_broadcast``, the source injects once and the routers
        replicate flits, so latency is the tree depth.  Without it, the
        source injects one unicast per destination and the injection port
        serializes them.
        """
        if self.config.tree_broadcast:
            depth = self.tree.depth(src)
            serialization = self.config.cycles_per_flit(message_bits) - 1
            latency = depth * self.config.hop_latency + self.config.router_latency + serialization
            self._broadcasts_counter.add()
            return now + latency
        row = self.flight_row(src, message_bits)
        flits = self.config.cycles_per_flit(message_bits)
        last_arrival = now
        for dst in self.topology.nodes():
            if dst == src:
                continue
            last_arrival = max(last_arrival, self.unicast(now, src, dst, row[dst], flits))
        self._broadcasts_counter.add()
        return last_arrival

    def multicast(self, now: int, src: int, dsts, message_bits: int = 128) -> int:
        """Multicast to a destination set; returns the last arrival cycle."""
        if self.config.tree_broadcast:
            # The tree reaches everyone; latency is bounded by the tree depth.
            return self.broadcast(now, src, message_bits)
        row = self.flight_row(src, message_bits)
        flits = self.config.cycles_per_flit(message_bits)
        last_arrival = now
        for dst in dsts:
            if dst == src:
                continue
            last_arrival = max(last_arrival, self.unicast(now, src, dst, row[dst], flits))
        return last_arrival

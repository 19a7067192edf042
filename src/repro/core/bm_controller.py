"""Per-node Broadcast-Memory controller.

Implements the access semantics of Section 4.2.1: plain loads read the local
BM and always succeed; stores first perform the global wireless broadcast
(retrying on collisions) and only then update the local BM and set the Write
Completion Bit (WCB); atomic read-modify-write instructions read the local
BM, broadcast the updated value, and fail (Atomicity Failure Bit, AFB) if a
remote write to the same location arrives in between.

Each in-flight operation is a :class:`PendingBmOp` record, and the hooks
the controller hands to the transceiver, the fabric and the event queue are
that record's own bound methods, which the snapshot codec encodes like any
other method of a record, so a checkpoint can be taken mid-broadcast.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

from repro.config import BroadcastMemoryConfig
from repro.errors import MemoryError_
from repro.isa.operations import RmwKind
from repro.mem.hierarchy import apply_rmw
from repro.wireless.transceiver import Transceiver, _PendingSend


class RmwResult(NamedTuple):
    """Outcome of a BM read-modify-write instruction.

    A NamedTuple (not a frozen dataclass): one is created per BM RMW, which
    is the single most frequent operation in the synchronization-heavy
    workloads.  Build it positionally; a keyword-built NamedTuple costs
    almost twice as much.
    """

    old_value: int
    success: bool
    afb: bool
    completion_cycle: int


class PendingBmOp:
    """One in-flight store/bulk-store/RMW: plain data plus its completion hooks.

    An RMW's op holds its broadcast (``ticket``) and its fabric RMW window
    (``window``), and each of those holds one of the op's bound methods;
    :meth:`finish_rmw` drops both links, so a finished op leaves no cycle
    for the (paused) collector.
    """

    __slots__ = (
        "controller",
        "kind",
        "addr",
        "value",
        "values",
        "pid",
        "old",
        "new",
        "window",
        "ticket",
        "on_done",
    )

    def __init__(
        self,
        controller: "BmController",
        kind: str,
        addr: int,
        on_done: Callable,
        pid: Optional[int],
        value: int = 0,
        values: Tuple[int, ...] = (),
        old: int = 0,
        new: int = 0,
    ) -> None:
        self.controller = controller
        self.kind = kind  # "store" | "bulk" | "rmw"
        self.addr = addr
        self.value = value
        self.values = values
        self.pid = pid
        self.old = old
        self.new = new
        self.window: Optional["_PendingRmw"] = None
        self.ticket: Optional[_PendingSend] = None
        self.on_done = on_done

    def stored(self, message, cycle: int) -> None:
        """The store's broadcast went out: perform globally, report completion."""
        controller = self.controller
        fabric = controller.fabric
        if self.kind == "bulk":
            for offset, value in enumerate(self.values):
                fabric.apply_store(self.addr + offset, value, controller.node_id, cycle, self.pid)
        else:
            fabric.apply_store(self.addr, self.value, controller.node_id, cycle, self.pid)
        controller.wcb = True
        self.on_done(cycle)

    def rmw_performed(self, message, cycle: int) -> None:
        """The RMW's broadcast went out; it fails if its window saw a remote write."""
        failed = self.controller.fabric.consume_pending_rmw(self.window)
        self.finish_rmw(failed, cycle)

    def atomicity_failed(self) -> None:
        """A remote write to this address arrived before our broadcast succeeded.

        Abort the pending transmission if it has not started; the
        instruction then terminates with AFB set without ever occupying the
        Data channel (Section 4.2.1).  A broadcast already on the air
        completes, and :meth:`rmw_performed` reports the failure.  The fabric
        calls this at most once, and only while the window is open, so the
        op has not finished.
        """
        if self.ticket.cancel():
            controller = self.controller
            controller.fabric.consume_pending_rmw(self.window)
            round_trip = controller.config.round_trip
            cycle = controller.fabric.sim.now + round_trip
            controller.fabric.sim.schedule(round_trip, self.finish_rmw, True, cycle)

    def finish_rmw(self, failed: bool, cycle: int) -> None:
        """Settle the RMW: set AFB/WCB, perform it if it succeeded, report."""
        self.ticket = None
        self.window = None
        controller = self.controller
        controller.afb = failed
        controller.wcb = True
        if not failed:
            controller.fabric.apply_store(self.addr, self.new, controller.node_id, cycle, self.pid)
        self.on_done(RmwResult(self.old, not failed, failed, cycle))


class BmController:
    """Front end between one core's pipeline and the wireless fabric."""

    STATE = ("wcb", "afb")
    REBUILT = ("node_id", "fabric", "transceiver", "config")

    def __init__(
        self,
        node_id: int,
        fabric: "BroadcastFabric",
        transceiver: Transceiver,
        config: BroadcastMemoryConfig,
    ) -> None:
        self.node_id = node_id
        self.fabric = fabric
        self.transceiver = transceiver
        self.config = config
        #: Write Completion Bit: set when the last store/RMW fully performed.
        self.wcb: bool = False
        #: Atomicity Failure Bit of the last RMW instruction.
        self.afb: bool = False

    # ----------------------------------------------------------------- loads
    def load(self, addr: int, pid: Optional[int] = None) -> Tuple[int, int]:
        """Plain load; returns ``(value, latency_cycles)``."""
        value = self.fabric.memory.read(addr, pid)
        return value, self.config.round_trip

    def bulk_load(self, addr: int, pid: Optional[int] = None) -> Tuple[Tuple[int, ...], int]:
        """Bulk load of four consecutive entries from the local BM."""
        values = tuple(self.fabric.memory.read(addr + i, pid) for i in range(4))
        return values, self.config.round_trip

    # ---------------------------------------------------------------- stores
    def store(
        self,
        addr: int,
        value: int,
        on_done: Callable[[int], None],
        pid: Optional[int] = None,
    ) -> None:
        """Broadcast store; ``on_done(completion_cycle)`` fires when performed."""
        self.wcb = False
        op = PendingBmOp(self, "store", addr, on_done, pid, value)
        self.transceiver.send_store(addr, value, op.stored)

    def bulk_store(
        self,
        addr: int,
        values: Tuple[int, int, int, int],
        on_done: Callable[[int], None],
        pid: Optional[int] = None,
    ) -> None:
        """Bulk store of four consecutive entries in one 15-cycle message."""
        if len(values) != 4:
            raise MemoryError_("bulk stores transfer exactly four 64-bit words")
        self.wcb = False
        values = tuple(values)
        op = PendingBmOp(self, "bulk", addr, on_done, pid, 0, values)
        self.transceiver.send_bulk_store(addr, values, op.stored)

    # --------------------------------------------------------------- atomics
    def rmw(
        self,
        addr: int,
        kind: RmwKind,
        on_done: Callable[[RmwResult], None],
        operand: int = 1,
        expected: int = 0,
        pid: Optional[int] = None,
    ) -> None:
        """Atomic read-modify-write with AFB-based failure detection.

        ``on_done`` receives an :class:`RmwResult`.  For a CAS whose
        comparison fails, no wireless transfer is attempted (Figure 4b: the
        code simply retries after re-reading), so the result arrives after
        the local BM round trip.
        """
        self.wcb = False
        self.afb = False
        old = self.fabric.memory.read(addr, pid)
        new, success = apply_rmw(kind, old, operand, expected)
        if not success:
            # CAS comparison failed: the instruction completes locally.
            completion = self.fabric.sim.now + self.config.round_trip
            self.wcb = True
            self.fabric.sim.schedule(
                self.config.round_trip, on_done, RmwResult(old, False, False, completion)
            )
            return
        # Positional fields, as in every build here: value, values, old, new.
        op = PendingBmOp(self, "rmw", addr, on_done, pid, 0, (), old, new)
        op.window = self.fabric.register_pending_rmw(self.node_id, addr, op.atomicity_failed)
        op.ticket = self.transceiver.send_store(addr, new, op.rmw_performed)

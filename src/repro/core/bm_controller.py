"""Per-node Broadcast-Memory controller.

Implements the access semantics of Section 4.2.1: plain loads read the local
BM and always succeed; stores first perform the global wireless broadcast
(retrying on collisions) and only then update the local BM and set the Write
Completion Bit (WCB); atomic read-modify-write instructions read the local
BM, broadcast the updated value, and fail (Atomicity Failure Bit, AFB) if a
remote write to the same location arrives in between.

In-flight operations live in an explicit pending-op registry (plain-data
records keyed by a per-controller op id) rather than in closures: every
callback the controller hands to the transceiver, the fabric, or the event
queue is a :class:`BmOpCallback` naming ``(node, op, method)``, which is
what lets the snapshot codec capture and reconstruct a checkpoint taken
mid-broadcast.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.config import BroadcastMemoryConfig
from repro.errors import MemoryError_
from repro.isa.operations import RmwKind
from repro.mem.hierarchy import apply_rmw
from repro.wireless.transceiver import Transceiver, _PendingSend


class RmwResult(NamedTuple):
    """Outcome of a BM read-modify-write instruction.

    A NamedTuple (not a frozen dataclass): one is created per BM RMW, which
    is the single most frequent operation in the synchronization-heavy
    workloads.
    """

    old_value: int
    success: bool
    afb: bool
    completion_cycle: int


class PendingBmOp:
    """One in-flight store/bulk-store/RMW: plain data plus the completion."""

    __slots__ = (
        "op_id",
        "kind",
        "addr",
        "value",
        "values",
        "pid",
        "old",
        "new",
        "settled",
        "token",
        "ticket",
        "on_done",
    )

    def __init__(
        self,
        op_id: int,
        kind: str,
        addr: int,
        on_done: Callable,
        pid: Optional[int],
        value: int = 0,
        values: Tuple[int, ...] = (),
        old: int = 0,
        new: int = 0,
    ) -> None:
        self.op_id = op_id
        self.kind = kind  # "store" | "bulk" | "rmw"
        self.addr = addr
        self.value = value
        self.values = values
        self.pid = pid
        self.old = old
        self.new = new
        self.settled = False
        self.token: Optional[int] = None
        self.ticket: Optional[_PendingSend] = None
        self.on_done = on_done


class BmOpCallback:
    """Describable callback: invoke ``method`` of a controller's pending op.

    Replaces the per-operation closures the controller used to allocate;
    the snapshot codec serializes one as ``(node, op_id, method)`` and
    rebuilds it against the restored registry.
    """

    __slots__ = ("controller", "op_id", "method")

    def __init__(self, controller: "BmController", op_id: int, method: str) -> None:
        self.controller = controller
        self.op_id = op_id
        self.method = method

    def __call__(self, *args) -> None:
        # Looked up per call, not at construction: about a third of these
        # callbacks never fire (a broadcast aborted by an atomicity failure
        # never completes), so binding early costs more lookups than it saves.
        getattr(self.controller, self.method)(self.op_id, *args)


class BmController:
    """Front end between one core's pipeline and the wireless fabric."""

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
        self.stores_issued = 0
        self.rmws_issued = 0
        self.rmw_failures = 0
        self._pending_ops: Dict[int, PendingBmOp] = {}
        self._next_op_id = 0

    # ----------------------------------------------------------------- loads
    def load(self, addr: int, pid: Optional[int] = None) -> Tuple[int, int]:
        """Plain load; returns ``(value, latency_cycles)``."""
        value = self.fabric.memory.read(addr, pid)
        return value, self.config.round_trip

    def bulk_load(self, addr: int, pid: Optional[int] = None) -> Tuple[Tuple[int, ...], int]:
        """Bulk load of four consecutive entries from the local BM."""
        values = tuple(self.fabric.memory.read(addr + i, pid) for i in range(4))
        return values, self.config.round_trip

    # ------------------------------------------------------------ op registry
    def _new_op(
        self,
        kind: str,
        addr: int,
        on_done: Callable,
        pid: Optional[int],
        value: int = 0,
        values: Tuple[int, ...] = (),
        old: int = 0,
        new: int = 0,
    ) -> PendingBmOp:
        op = PendingBmOp(self._next_op_id, kind, addr, on_done, pid, value, values, old, new)
        self._next_op_id += 1
        self._pending_ops[op.op_id] = op
        return op

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
        self.stores_issued += 1
        op = self._new_op("store", addr, on_done, pid, value=value)
        op.ticket = self.transceiver.send_store(
            addr, value, BmOpCallback(self, op.op_id, "_store_performed")
        )

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
        self.stores_issued += 1
        op = self._new_op("bulk", addr, on_done, pid, values=tuple(values))
        op.ticket = self.transceiver.send_bulk_store(
            addr, tuple(values), BmOpCallback(self, op.op_id, "_store_performed")
        )

    def _store_performed(self, op_id: int, message, cycle: int) -> None:
        """The broadcast went out: perform globally and report completion."""
        op = self._pending_ops.pop(op_id)
        if op.kind == "bulk":
            for offset, value in enumerate(op.values):
                self.fabric.apply_store(op.addr + offset, value, self.node_id, cycle, op.pid)
        else:
            self.fabric.apply_store(op.addr, op.value, self.node_id, cycle, op.pid)
        self.wcb = True
        op.on_done(cycle)

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
        self.rmws_issued += 1
        self.wcb = False
        self.afb = False
        old = self.fabric.memory.read(addr, pid)
        new, success = apply_rmw(kind, old, operand, expected)
        if not success:
            # CAS comparison failed: the instruction completes locally.
            completion = self.fabric.sim.now + self.config.round_trip
            self.wcb = True
            self.fabric.sim.schedule(
                self.config.round_trip,
                on_done,
                RmwResult(old_value=old, success=False, afb=False, completion_cycle=completion),
            )
            return
        op = self._new_op("rmw", addr, on_done, pid, old=old, new=new)
        op.token = self.fabric.register_pending_rmw(
            self.node_id, addr, BmOpCallback(self, op.op_id, "_rmw_atomicity_failed")
        )
        op.ticket = self.transceiver.send_store(
            addr, new, BmOpCallback(self, op.op_id, "_rmw_performed")
        )

    def _rmw_finish(self, op_id: int, failed: bool, cycle: int) -> None:
        op = self._pending_ops.get(op_id)
        if op is None or op.settled:
            return
        op.settled = True
        del self._pending_ops[op_id]
        self.afb = failed
        self.wcb = True
        if failed:
            self.rmw_failures += 1
        else:
            self.fabric.apply_store(op.addr, op.new, self.node_id, cycle, op.pid)
        op.on_done(
            RmwResult(
                old_value=op.old,
                success=not failed,
                afb=failed,
                completion_cycle=cycle,
            )
        )

    def _rmw_atomicity_failed(self, op_id: int) -> None:
        # A remote write to this address arrived before our broadcast
        # succeeded.  Abort the pending transmission if it has not
        # started; the instruction then terminates with AFB set without
        # ever occupying the Data channel (Section 4.2.1).
        op = self._pending_ops.get(op_id)
        if op is None or op.settled:
            return
        if op.ticket is not None and op.ticket.cancel():
            self.fabric.consume_pending_rmw(op.token)
            cycle = self.fabric.sim.now + self.config.round_trip
            self.fabric.sim.schedule(
                self.config.round_trip,
                BmOpCallback(self, op_id, "_rmw_finish"),
                True,
                cycle,
            )

    def _rmw_performed(self, op_id: int, message, cycle: int) -> None:
        op = self._pending_ops.get(op_id)
        if op is None or op.settled:
            return
        failed = self.fabric.consume_pending_rmw(op.token)
        self._rmw_finish(op_id, failed, cycle)

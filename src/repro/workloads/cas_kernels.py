"""CAS kernels on lock-free data structures (Section 6, Figure 9).

Three kernels exercise compare-and-swap on shared lock-free structures:

* **ADD** — threads insert nodes taken from their private pools into a shared
  queue with a CAS on the tail pointer.
* **FIFO** — threads alternately enqueue (CAS on tail) and dequeue (CAS on
  head) nodes of a shared queue.
* **LIFO** — threads alternately push and pop on a shared stack (CAS on the
  top pointer).

Between consecutive CAS operations each thread executes a configurable
number of instructions (the "critical section size" on Figure 9's x-axis).
The kernels report the number of *successful* CAS operations, from which the
experiment computes throughput per 1000 cycles.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cpu.frames import START, Call, FrameBody, Op, Ret
from repro.isa.operations import Compute, Read, Write
from repro.machine.manycore import Manycore
from repro.runner.registry import register_workload
from repro.sync.api import SyncFactory
from repro.sync.frames import cell_cas
from repro.workloads.base import WorkloadHandle


class CasKernelKind(enum.Enum):
    """The three lock-free kernels of Figure 9."""

    FIFO = "fifo"
    LIFO = "lifo"
    ADD = "add"


def _instructions_to_cycles(instructions: int, issue_width: int) -> int:
    """Instructions between CASes converted to cycles on the issue width."""
    return max(1, instructions // max(1, issue_width))


def _cas_insert(frame, value, env):
    """One successful lock-free insertion: read the pointer, CAS it forward.

    Frame routine; locals carry the target cell's ``sid`` and the
    ``node_value`` to swap in.  Returns the number of attempts taken.  The
    pointer read is the cell's own load, issued directly (no callee frame).
    """
    L, label = frame.locals, frame.label
    if label == START:
        L["attempts"] = 0
        return Op(env.sync(L["sid"]).read_op(), "read")
    if label == "read":
        L["attempts"] += 1
        return cell_cas(L["sid"], value, L["node_value"], "cas")
    # label == "cas"
    success, _ = value
    if success:
        return Ret(L["attempts"])
    return Op(env.sync(L["sid"]).read_op(), "read")


@register_workload("cas")
def build_cas_kernel(
    machine: Manycore,
    kind: CasKernelKind,
    critical_section_instructions: int,
    successes_per_thread: int = 8,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Register a CAS kernel on ``machine``."""
    kind = CasKernelKind(kind)
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program(f"cas-{kind.value}")
    sync = SyncFactory(program)
    # Shared structure pointers.  FIFO uses separate head and tail pointers;
    # LIFO and ADD use one pointer.
    tail_cell = sync.create_cell()
    head_cell = sync.create_cell() if kind is CasKernelKind.FIFO else tail_cell
    tail_sid = tail_cell.sync_id
    head_sid = head_cell.sync_id
    think_cycles = _instructions_to_cycles(
        critical_section_instructions, machine.config.core.issue_width
    )

    def body(frame, value, env):
        L, label = frame.locals, frame.label
        tid = env.ctx.thread_id
        pool_base = program.private_addr(tid)
        if label == START:
            if successes_per_thread <= 0:
                return Ret(0)
            L["successes"] = 0
            L["op"] = 0
            # Work between accesses to the shared structure.
            return Op(Compute(think_cycles), "computed")
        op_index = L["op"]
        if label == "computed":
            # Prepare the node in the private pool (one line touched).
            return Op(Write(pool_base + (op_index % 64) * 8, tid + 1), "prepared")
        if label == "prepared":
            # ADD and LIFO hammer one pointer; FIFO alternates enqueue on
            # the tail with dequeue from the head.
            if kind is CasKernelKind.FIFO and op_index % 2 != 0:
                target = head_sid
            else:
                target = tail_sid
            node_value = tid * 1000 + op_index + 1
            return Call(
                "cas.insert", {"sid": target, "node_value": node_value}, "inserted"
            )
        if label == "inserted":
            # Touch the node again (dequeue/pop reads it back).
            return Op(Read(pool_base + (op_index % 64) * 8), "touched")
        # label == "touched"
        successes = L["successes"] + 1
        L["successes"] = successes
        L["op"] = op_index + 1
        if successes < successes_per_thread:
            return Op(Compute(think_cycles), "computed")
        return Ret(successes)

    machine.register_frame_routine("cas.insert", _cas_insert)
    machine.register_frame_routine("cas.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("cas.body"))
    return WorkloadHandle(
        name=f"cas-{kind.value}",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": successes_per_thread,
            "critical_section_instructions": critical_section_instructions,
            "total_successes": successes_per_thread * num_threads,
        },
    )

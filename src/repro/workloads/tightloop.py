"""TightLoop barrier kernel (Section 6).

Each thread adds up the contents of a 50-element private array into a local
variable and then synchronizes in a barrier; the process repeats in a loop.
This is the paper's most demanding barrier environment and the workload
behind Figure 7.

The body runs on the resumable-frame runtime (:mod:`repro.cpu.frames`):
thread progress is a label plus integer locals, so a checkpoint of a fig7
run restores natively in O(state).
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.isa.operations import Compute, Read
from repro.machine.manycore import Manycore
from repro.runner.registry import register_workload
from repro.sync.api import SyncFactory
from repro.sync.frames import barrier_wait
from repro.workloads.base import WorkloadHandle

#: Elements in each thread's private array (from the paper's description).
ARRAY_ELEMENTS = 50
#: Cycles of arithmetic per element on the 2-issue core (load-add chain).
CYCLES_PER_ELEMENT = 1


@register_workload("tightloop")
def build_tightloop(
    machine: Manycore,
    iterations: int = 10,
    num_threads: Optional[int] = None,
    array_elements: int = ARRAY_ELEMENTS,
) -> WorkloadHandle:
    """Register the TightLoop kernel on ``machine`` and return its handle."""
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("tightloop")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads)
    barrier_sid = barrier.sync_id
    line_bytes = machine.config.cache.line_bytes
    lines_touched = max(1, (array_elements * 8 + line_bytes - 1) // line_bytes)
    compute_cycles = array_elements * CYCLES_PER_ELEMENT

    def body(frame, value, env):
        # Walk the private array line by line (it stays L1-resident after
        # the first iteration), charge one cycle of arithmetic per element,
        # then join the barrier; repeat for every iteration.
        L, label = frame.locals, frame.label
        base = program.private_addr(env.ctx.thread_id)
        if label == START:
            if iterations == 0:
                return Ret(0)
            L["iter"] = 0
            L["line"] = 0
            L["checksum"] = 0
            return Op(Read(base), "read")
        if label == "read":
            L["checksum"] += value
            line = L["line"] + 1
            if line < lines_touched:
                L["line"] = line
                return Op(Read(base + line * line_bytes), "read")
            return Op(Compute(compute_cycles), "computed")
        if label == "computed":
            return barrier_wait(barrier_sid, "joined")
        # label == "joined"
        iteration = L["iter"] + 1
        if iteration < iterations:
            L["iter"] = iteration
            L["line"] = 0
            return Op(Read(base), "read")
        return Ret(L["checksum"])

    machine.register_frame_routine("tightloop.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("tightloop.body"))
    return WorkloadHandle(
        name="tightloop",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={"iterations": iterations, "array_elements": array_elements},
    )

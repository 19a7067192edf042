"""Parallelized Livermore loops 2, 3, and 6 (Section 6, Figure 8).

Sampson et al. [37] identify these three loops as the representative ones
with regard to synchronization; the paper parallelizes them with barriers and
sweeps the vector length.  The proxies here reproduce each loop's
synchronization structure:

* **Loop 2** (incomplete Cholesky conjugate gradient fragment): a series of
  passes over the vector in which the active portion halves every pass, with
  a barrier after each pass — many barriers with shrinking work, which is why
  it is the most barrier-sensitive of the three.
* **Loop 3** (inner product): each thread reduces its chunk, adds the partial
  sum into a shared accumulator, and synchronizes in one barrier per
  repetition.
* **Loop 6** (general linear recurrence): outer steps of growing work, each
  terminated by a barrier — a large loop body relative to the barrier cost.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cpu.frames import START, Call, FrameBody, Op, Ret
from repro.errors import WorkloadError
from repro.isa.operations import Compute, Read
from repro.machine.manycore import Manycore
from repro.runner.registry import register_workload
from repro.sync.api import SyncFactory
from repro.sync.frames import barrier_wait, cell_fetch_add
from repro.workloads.base import WorkloadHandle

#: Cycles of floating-point work charged per vector element processed.
CYCLES_PER_ELEMENT = {2: 4, 3: 2, 6: 2}
#: Cap on the number of simulated outer steps of Loop 6.  The paper runs the
#: full recurrence; simulating thousands of barriers per point is unnecessary
#: for the trends, so longer vectors sample the recurrence and scale the work.
LOOP6_MAX_STEPS = 48


class LivermoreLoop(enum.IntEnum):
    """The three Livermore loops the paper evaluates."""

    ICCG = 2
    INNER_PRODUCT = 3
    LINEAR_RECURRENCE = 6


@register_workload("livermore")
def build_livermore_loop(
    machine: Manycore,
    loop: LivermoreLoop,
    vector_length: int,
    repetitions: int = 2,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Register the chosen Livermore loop on ``machine``."""
    loop = LivermoreLoop(loop)
    if vector_length < 1:
        raise WorkloadError("vector length must be positive")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program(f"livermore{int(loop)}")
    sync = SyncFactory(program)
    barrier = sync.create_barrier(num_threads)
    accumulator = sync.create_cell()
    barrier_sid = barrier.sync_id
    accumulator_sid = accumulator.sync_id
    line_bytes = machine.config.cache.line_bytes
    per_element = CYCLES_PER_ELEMENT[int(loop)]

    def _share_of(elements: int, thread_id: int) -> int:
        share = max(0, elements // num_threads)
        if thread_id < elements % num_threads:
            share += 1
        return share

    def chunk_phase(frame, value, env):
        """Process ``locals["elements"]`` vector elements owned by this thread."""
        L, label = frame.locals, frame.label
        tid = env.ctx.thread_id
        share = _share_of(L["elements"], tid)
        base = program.private_addr(tid, offset_words=1024)
        if label == START:
            if share == 0:
                return Ret(None)
            L["line"] = 0
            return Op(Read(base), "read")
        if label == "read":
            lines = max(1, (share * 8 + line_bytes - 1) // line_bytes)
            line = L["line"] + 1
            if line < min(lines, 64):
                L["line"] = line
                return Op(Read(base + line * line_bytes), "read")
            return Op(Compute(share * per_element), "computed")
        return Ret(None)

    def _chunk(elements: int, label: str) -> Call:
        return Call("livermore.chunk", {"elements": elements}, label)

    def loop2_body(frame, value, env):
        # Passes over a halving active portion, one barrier per pass.
        L, label = frame.locals, frame.label
        if label == START:
            if repetitions == 0:
                return Ret(0)
            L["rep"] = 0
            L["active"] = vector_length
            return _chunk(vector_length, "chunked")
        if label == "chunked":
            return barrier_wait(barrier_sid, "joined")
        # label == "joined"
        active = L["active"]
        if active > 1:
            active //= 2
            L["active"] = active
            return _chunk(active, "chunked")
        rep = L["rep"] + 1
        if rep < repetitions:
            L["rep"] = rep
            L["active"] = vector_length
            return _chunk(vector_length, "chunked")
        return Ret(0)

    def loop3_body(frame, value, env):
        # Chunk-reduce into the shared accumulator, one barrier per rep.
        L, label = frame.locals, frame.label
        if label == START:
            if repetitions == 0:
                return Ret(0)
            L["rep"] = 0
            return _chunk(vector_length, "chunked")
        if label == "chunked":
            return cell_fetch_add(accumulator_sid, 1, "reduced")
        if label == "reduced":
            return barrier_wait(barrier_sid, "joined")
        # label == "joined"
        rep = L["rep"] + 1
        if rep < repetitions:
            L["rep"] = rep
            return _chunk(vector_length, "chunked")
        return Ret(0)

    steps = min(vector_length, LOOP6_MAX_STEPS)
    elements_per_step = max(1, vector_length // steps)

    def loop6_body(frame, value, env):
        # The recurrence's inner work grows with the step index.
        L, label = frame.locals, frame.label
        if label == START:
            if repetitions == 0:
                return Ret(0)
            L["rep"] = 0
            L["step"] = 1
            return _chunk(elements_per_step, "chunked")
        if label == "chunked":
            return barrier_wait(barrier_sid, "joined")
        # label == "joined"
        step = L["step"] + 1
        if step <= steps:
            L["step"] = step
            return _chunk(step * elements_per_step, "chunked")
        rep = L["rep"] + 1
        if rep < repetitions:
            L["rep"] = rep
            L["step"] = 1
            return _chunk(elements_per_step, "chunked")
        return Ret(0)

    bodies = {
        LivermoreLoop.ICCG: loop2_body,
        LivermoreLoop.INNER_PRODUCT: loop3_body,
        LivermoreLoop.LINEAR_RECURRENCE: loop6_body,
    }
    machine.register_frame_routine("livermore.chunk", chunk_phase)
    machine.register_frame_routine("livermore.body", bodies[loop])
    for _ in range(num_threads):
        program.add_thread(FrameBody("livermore.body"))
    return WorkloadHandle(
        name=f"livermore-loop{int(loop)}",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": repetitions,
            "vector_length": vector_length,
            "loop": int(loop),
        },
    )

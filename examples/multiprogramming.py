#!/usr/bin/env python
"""Multiprogramming: two programs share the chip and the Broadcast Memory.

WiSync tags every BM chunk with the PID of its owner (Section 4.4), so
different programs can share physical BM pages while remaining protected
from each other.  This example runs a barrier-heavy program and a
lock-heavy program concurrently on one WiSync machine, shows that both make
progress, and demonstrates the PID protection check and the tone-barrier
placement rule (Section 5.2).
"""

from repro import Manycore, SyncFactory, wisync
from repro.analysis.tables import format_table
from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.errors import ProtectionError, ToneBarrierError
from repro.isa.operations import Compute, Read, Write
from repro.sync.frames import barrier_wait, lock_acquire, lock_release

CORES = 16


def body_idle(frame, value, env):
    return Ret(None)


def main():
    machine = Manycore(wisync(num_cores=CORES))

    # Program A: 8 threads on cores 0-7 crossing a tone barrier.
    program_a = machine.new_program("barrier-app")
    sync_a = SyncFactory(program_a)
    barrier = sync_a.create_barrier(8, participants=list(range(8)))

    def body_a(frame, value, env):
        # Six rounds of compute, then the tone barrier.
        L, label = frame.locals, frame.label
        if label == "computed":
            return barrier_wait(barrier.sync_id, "crossed")
        if label == START:
            L["round"] = 0
        else:  # label == "crossed"
            L["round"] += 1
        if L["round"] == 6:
            return Ret(None)
        return Op(Compute(env.ctx.rng.jitter(120)), "computed")

    machine.register_frame_routine("barrier-app.body", body_a)
    for core in range(8):
        program_a.add_thread(FrameBody("barrier-app.body"), core_id=core)

    # Program B: 8 threads on cores 8-15 hammering a wireless lock.
    program_b = machine.new_program("lock-app")
    sync_b = SyncFactory(program_b)
    lock = sync_b.create_lock()
    counter = program_b.alloc_shared()

    def body_b(frame, value, env):
        # Five rounds of: lock, increment the shared counter, unlock, compute.
        L, label = frame.locals, frame.label
        if label == "acquired":
            return Op(Read(counter), "read")
        if label == "read":
            return Op(Write(counter, value + 1), "wrote")
        if label == "wrote":
            return lock_release(lock.sync_id, "released")
        if label == "released":
            return Op(Compute(env.ctx.rng.jitter(80)), "computed")
        if label == START:
            L["round"] = 0
        else:  # label == "computed"
            L["round"] += 1
        if L["round"] == 5:
            return Ret(None)
        return lock_acquire(lock.sync_id, "acquired")

    machine.register_frame_routine("lock-app.body", body_b)
    for core in range(8, 16):
        program_b.add_thread(FrameBody("lock-app.body"), core_id=core)

    result = machine.run()

    rows = [
        ["barrier-app (pid %d)" % program_a.pid, 8, "tone barrier x6", "completed"],
        ["lock-app (pid %d)" % program_b.pid, 8,
         "counter=%d" % machine.memory.peek(counter), "completed"],
    ]
    print(format_table(["program", "threads", "work", "status"], rows,
                       title="Two programs sharing one WiSync chip"))
    print(f"\ntotal cycles: {result.total_cycles}, "
          f"wireless messages: {result.wireless_messages}, "
          f"BM entries allocated: {machine.fabric.memory.allocated_count()}")

    # PID protection: program B cannot touch program A's tone barrier entry.
    barrier_addr = barrier.bm_addr
    try:
        machine.fabric.memory.read(barrier_addr, pid=program_b.pid)
    except ProtectionError as error:
        print(f"\nPID protection works: {error}")

    # A tone barrier's Armed bit is per core, so two threads on one core
    # may not share it (Section 5.2): the machine refuses to run them.
    small = Manycore(wisync(num_cores=4))
    program = small.new_program("crowded")
    SyncFactory(program).create_barrier(4)
    small.register_frame_routine("crowded.body", body_idle)
    for core in (0, 1, 2, 3, 0):
        program.add_thread(FrameBody("crowded.body"), core_id=core)
    try:
        small.run()
    except ToneBarrierError as error:
        print(f"Tone-barrier placement rule works: {error}")


if __name__ == "__main__":
    main()

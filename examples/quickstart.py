#!/usr/bin/env python
"""Quickstart: run the same barrier-heavy kernel on all four architectures.

Builds a small manycore for each Table 2 configuration (Baseline, Baseline+,
WiSyncNoT, WiSync), runs a kernel in which every thread repeatedly computes
and crosses a barrier, and prints execution time, wireless traffic, and the
speedup over Baseline.
"""

from repro import Manycore, SyncFactory, baseline, baseline_plus, wisync, wisync_not
from repro.analysis.tables import format_table
from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.isa.operations import Compute
from repro.sync.frames import barrier_wait, cell_fetch_add

CORES = 16
ITERATIONS = 8


def build_and_run(config):
    machine = Manycore(config)
    program = machine.new_program("quickstart")
    sync = SyncFactory(program)
    barrier_sid = sync.create_barrier(CORES).sync_id
    total_sid = sync.create_cell().sync_id

    def body(frame, value, env):
        # A frame routine: each label is a point where the thread resumes.
        # Per iteration: compute, add 1 to the shared total, cross the barrier.
        L, label = frame.locals, frame.label
        if label == "computed":
            return cell_fetch_add(total_sid, 1, "added")
        if label == "added":
            return barrier_wait(barrier_sid, "crossed")
        if label == START:
            L["iteration"] = 0
        else:  # label == "crossed"
            L["iteration"] += 1
        if L["iteration"] == ITERATIONS:
            return Ret(None)
        return Op(Compute(env.ctx.rng.jitter(150)), "computed")

    machine.register_frame_routine("quickstart.body", body)
    for _ in range(CORES):
        program.add_thread(FrameBody("quickstart.body"))
    return machine.run()


def main():
    results = {}
    for config_fn in (baseline, baseline_plus, wisync_not, wisync):
        config = config_fn(num_cores=CORES)
        results[config.name] = build_and_run(config)

    base_cycles = results["baseline"].total_cycles
    rows = []
    for name, result in results.items():
        rows.append([
            name,
            result.total_cycles,
            round(base_cycles / result.total_cycles, 2),
            result.wireless_messages,
            result.wireless_collisions,
            f"{100 * result.data_channel_utilization():.2f}%",
        ])
    print(format_table(
        ["configuration", "cycles", "speedup vs baseline", "wireless msgs",
         "collisions", "data-channel util"],
        rows,
        title=f"Barrier+reduction kernel, {CORES} cores, {ITERATIONS} iterations",
    ))


if __name__ == "__main__":
    main()

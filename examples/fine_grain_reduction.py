#!/usr/bin/env python
"""Fine-grain reduction scenario (paper Section 4.3.5).

A tight reduction loop — every thread repeatedly adds into one shared
accumulator — is the kind of fine-grain synchronization the paper's
introduction motivates.  This example compares the reduction throughput of
the conventional architecture (atomics through the cache hierarchy) with
WiSync (fetch&add on the Broadcast Memory), and shows the effect of the
amount of computation between updates.
"""

from repro import Manycore, SyncFactory, baseline, wisync
from repro.analysis.tables import format_table
from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.isa.operations import Compute
from repro.sync.frames import cell_fetch_add

CORES = 16
ADDS_PER_THREAD = 12


def run_reduction(config, think_cycles):
    machine = Manycore(config)
    program = machine.new_program("reduction")
    sync = SyncFactory(program)
    accumulator_sid = sync.create_cell().sync_id

    def body(frame, value, env):
        # Per add: compute, then fetch&add 1 into the shared accumulator.
        L, label = frame.locals, frame.label
        if label == "computed":
            return cell_fetch_add(accumulator_sid, 1, "added")
        if label == START:
            L["adds"] = 0
        else:  # label == "added"
            L["adds"] += 1
        if L["adds"] == ADDS_PER_THREAD:
            return Ret(None)
        return Op(Compute(env.ctx.rng.jitter(think_cycles)), "computed")

    machine.register_frame_routine("reduction.body", body)
    for _ in range(CORES):
        program.add_thread(FrameBody("reduction.body"))
    result = machine.run()
    total_adds = CORES * ADDS_PER_THREAD
    return result.total_cycles, 1000.0 * total_adds / result.total_cycles


def main():
    rows = []
    for think in (50, 500, 5000):
        base_cycles, base_tp = run_reduction(baseline(CORES), think)
        ws_cycles, ws_tp = run_reduction(wisync(CORES), think)
        rows.append([think, base_cycles, ws_cycles,
                     round(base_tp, 2), round(ws_tp, 2),
                     round(base_cycles / ws_cycles, 2)])
    print(format_table(
        ["compute between adds (cyc)", "baseline cycles", "wisync cycles",
         "baseline adds/kcycle", "wisync adds/kcycle", "speedup"],
        rows,
        title=f"Shared reduction, {CORES} threads x {ADDS_PER_THREAD} adds",
    ))
    print("\nThe tighter the reduction loop, the larger WiSync's advantage —")
    print("exactly the trend of the paper's CAS kernels (Figure 9).")


if __name__ == "__main__":
    main()

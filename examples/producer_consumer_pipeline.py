#!/usr/bin/env python
"""Producer/consumer pipeline over the Broadcast Memory (Section 4.3.4).

A producer thread streams 4-word payloads to a consumer through a
full/empty-flag slot.  On WiSync the payload moves as a single 15-cycle Bulk
message and the flag as one 5-cycle message; on the conventional machine the
same protocol runs through the coherence protocol.  The example prints the
cycles per payload hand-off for both machines.
"""

from repro import Manycore, SyncFactory, baseline, wisync
from repro.analysis.tables import format_table
from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.isa.operations import Compute
from repro.sync.frames import channel_consume, channel_produce

PAYLOADS = 16


def run_pipeline(config):
    machine = Manycore(config)
    program = machine.new_program("pipeline")
    sync = SyncFactory(program)
    channel_sid = sync.create_channel().sync_id
    received = []

    def producer(frame, value, env):
        # Per payload: compute, then publish it on the channel.
        L, label = frame.locals, frame.label
        if label == "computed":
            index = L["index"]
            payload = (index, index * 2, index * 3, index * 4)
            return channel_produce(channel_sid, payload, "produced")
        if label == START:
            L["index"] = 0
        else:  # label == "produced"
            L["index"] += 1
        if L["index"] == PAYLOADS:
            return Ret(None)
        return Op(Compute(env.ctx.rng.jitter(40)), "computed")

    def consumer(frame, value, env):
        # Per payload: take it off the channel, then compute.
        L, label = frame.locals, frame.label
        if label == "consumed":
            received.append(value)
            return Op(Compute(env.ctx.rng.jitter(40)), "computed")
        if label == START:
            L["count"] = 0
        else:  # label == "computed"
            L["count"] += 1
        if L["count"] == PAYLOADS:
            return Ret(None)
        return channel_consume(channel_sid, "consumed")

    machine.register_frame_routine("pipeline.producer", producer)
    machine.register_frame_routine("pipeline.consumer", consumer)
    program.add_thread(FrameBody("pipeline.producer"), core_id=0)
    program.add_thread(FrameBody("pipeline.consumer"), core_id=machine.config.num_cores - 1)
    result = machine.run()
    assert received == [(i, i * 2, i * 3, i * 4) for i in range(PAYLOADS)]
    return result


def main():
    rows = []
    for config_fn in (baseline, wisync):
        config = config_fn(num_cores=16)
        result = run_pipeline(config)
        rows.append([
            config.name,
            result.total_cycles,
            round(result.total_cycles / PAYLOADS, 1),
            result.wireless_messages,
        ])
    print(format_table(
        ["configuration", "total cycles", "cycles/payload", "wireless msgs"],
        rows,
        title=f"Producer/consumer pipeline, {PAYLOADS} four-word payloads, far-apart cores",
    ))
    print("\nOn WiSync the hand-off latency is independent of the distance between")
    print("producer and consumer because the payload is broadcast wirelessly.")


if __name__ == "__main__":
    main()

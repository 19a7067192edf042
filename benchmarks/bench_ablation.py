"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the contribution of individual
WiSync mechanisms: the Tone channel, the Bulk-message optimization, and the
collision-resolution policy.
"""

from dataclasses import replace

from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.isa.operations import Compute
from repro.machine.configs import wisync, wisync_not
from repro.machine.manycore import Manycore
from repro.sync.api import SyncFactory
from repro.sync.frames import barrier_wait, channel_consume, channel_produce
from repro.sync.producer_consumer import ProducerConsumerChannel


def _barrier_time(config, iterations=4, cores=32):
    machine = Manycore(config)
    program = machine.new_program("ablation")
    sync = SyncFactory(program)
    barrier_sid = sync.create_barrier(cores).sync_id

    def body(frame, value, env):
        L, label = frame.locals, frame.label
        if label == "computed":
            return barrier_wait(barrier_sid, "crossed")
        if label == START:
            L["iteration"] = 0
        else:  # label == "crossed"
            L["iteration"] += 1
        if L["iteration"] == iterations:
            return Ret(None)
        return Op(Compute(100), "computed")

    machine.register_frame_routine("ablation.body", body)
    for _ in range(cores):
        program.add_thread(FrameBody("ablation.body"))
    return machine.run().total_cycles / iterations


def test_ablation_tone_channel(benchmark):
    """Paper's own ablation: WiSync vs WiSyncNoT on a barrier burst."""
    result = benchmark.pedantic(
        lambda: (_barrier_time(wisync(32)), _barrier_time(wisync_not(32))),
        rounds=1, iterations=1,
    )
    with_tone, without_tone = result
    print(f"\nbarrier cycles/iteration: tone={with_tone:.0f} data-only={without_tone:.0f}")
    assert with_tone < without_tone


def test_ablation_backoff_policy(benchmark):
    """Broadcast-aware backoff vs plain exponential backoff under bursts."""
    def run():
        default = wisync_not(32)
        plain = default.replace(backoff=replace(default.backoff, kind="exponential"))
        return _barrier_time(default), _barrier_time(plain)

    adaptive, exponential = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nbarrier cycles/iteration: broadcast-aware={adaptive:.0f} exponential={exponential:.0f}")
    assert adaptive <= exponential * 1.5


def test_ablation_bulk_messages(benchmark):
    """Producer/consumer payloads carried by 15-cycle Bulk messages."""
    def run():
        machine = Manycore(wisync(4))
        program = machine.new_program("pc")
        data = program.alloc_broadcast(4)
        flag = program.alloc_broadcast(1)
        channel = ProducerConsumerChannel(data, flag, wireless=True)
        channel_sid = machine.register_sync(channel)

        def endpoint(frame, value, env):
            # Six payloads: thread 0 produces them, thread 1 consumes them.
            L, label = frame.locals, frame.label
            L["count"] = 0 if label == START else L["count"] + 1
            if L["count"] == 6:
                return Ret(None)
            if env.ctx.thread_id == 0:
                i = L["count"]
                return channel_produce(channel_sid, (i, i, i, i), "moved")
            return channel_consume(channel_sid, "moved")

        machine.register_frame_routine("bulk.endpoint", endpoint)
        program.add_thread(FrameBody("bulk.endpoint"), core_id=0)
        program.add_thread(FrameBody("bulk.endpoint"), core_id=1)
        return machine.run().total_cycles

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nproducer/consumer with bulk messages: {cycles} cycles for 6 payloads")
    # Six payloads with 15-cycle bulk messages plus flag traffic stay well
    # under the cost of 24 individual 5-cycle transfers with per-word flags.
    assert cycles < 6 * 4 * 5 * 4

"""Integration tests: synchronization primitives running on full machines.

Every test builds a small machine, runs frame-routine thread bodies through
the simulator, and checks functional correctness (mutual exclusion, barrier
semantics, reduction totals) plus the qualitative timing properties the paper
relies on.
"""

import pytest

from frame_bodies import frame_body, rounds
from repro.cpu.frames import START, Op, Ret
from repro.isa.operations import Compute, Read, Write
from repro.machine.configs import baseline, baseline_plus, wisync, wisync_not
from repro.machine.manycore import Manycore
from repro.sync.api import SyncFactory
from repro.sync.frames import (
    barrier_wait,
    cell_cas,
    cell_fetch_add,
    channel_consume,
    channel_produce,
    eureka_post,
    eureka_wait,
    lock_acquire,
    lock_release,
)

ALL_CONFIGS = [baseline, baseline_plus, wisync_not, wisync]
CONFIG_IDS = ["baseline", "baseline+", "wisync-not", "wisync"]


def run_machine(config_fn, body_factory, num_threads=8, cores=8):
    machine = Manycore(config_fn(num_cores=cores))
    program = machine.new_program("test")
    sync = SyncFactory(program)
    shared = body_factory(machine, program, sync)
    body = frame_body(machine, "test.body", shared["body"])
    for _ in range(num_threads):
        program.add_thread(body)
    result = machine.run()
    return machine, result, shared


class TestLocks:
    @pytest.mark.parametrize("config_fn", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_mutual_exclusion_counter(self, config_fn):
        """A non-atomic read-modify-write under a lock must not lose updates."""
        increments = 4

        def factory(machine, program, sync):
            lock = sync.create_lock()
            counter_addr = program.alloc_shared()

            def body(frame, value, env):
                L, label = frame.locals, frame.label
                if label == "acquired":
                    return Op(Read(counter_addr), "read")
                if label == "read":
                    L["value"] = value
                    return Op(Compute(5), "computed")
                if label == "computed":
                    return Op(Write(counter_addr, L["value"] + 1), "wrote")
                if label == "wrote":
                    return lock_release(lock.sync_id, "released")
                if label == "released":
                    return Op(Compute(env.ctx.rng.jitter(20)), "rested")
                if not rounds(frame, increments):
                    return Ret(None)
                return lock_acquire(lock.sync_id, "acquired")

            return {"body": body, "counter": counter_addr}

        machine, result, shared = run_machine(config_fn, factory)
        assert result.completed
        assert machine.memory.peek(shared["counter"]) == 8 * increments

    @pytest.mark.parametrize("config_fn", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_lock_is_released_at_end(self, config_fn):
        def factory(machine, program, sync):
            lock = sync.create_lock()

            def body(frame, value, env):
                label = frame.label
                if label == START:
                    return lock_acquire(lock.sync_id, "acquired")
                if label == "acquired":
                    return Op(Compute(3), "computed")
                if label == "computed":
                    return lock_release(lock.sync_id, "released")
                return Ret(None)

            return {"body": body, "lock": lock}

        machine, result, shared = run_machine(config_fn, factory, num_threads=4)
        assert result.completed

    def test_wisync_lock_is_much_faster_than_baseline(self):
        def factory(machine, program, sync):
            lock = sync.create_lock()

            def body(frame, value, env):
                label = frame.label
                if label == "acquired":
                    return Op(Compute(10), "computed")
                if label == "computed":
                    return lock_release(lock.sync_id, "released")
                if label == "released":
                    return Op(Compute(50), "rested")
                if not rounds(frame, 3):
                    return Ret(None)
                return lock_acquire(lock.sync_id, "acquired")

            return {"body": body}

        _, base_result, _ = run_machine(baseline, factory, num_threads=16, cores=16)
        _, wisync_result, _ = run_machine(wisync, factory, num_threads=16, cores=16)
        assert wisync_result.total_cycles < base_result.total_cycles / 3


class TestBarriers:
    @pytest.mark.parametrize("config_fn", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_no_thread_passes_barrier_early(self, config_fn):
        """Phase counters must never be observed out of sync across a barrier."""
        phases = 3

        def factory(machine, program, sync):
            barrier = sync.create_barrier(8)
            phase_flags = [program.alloc_shared() for _ in range(8)]
            violations = []

            def body(frame, value, env):
                L, label = frame.locals, frame.label
                tid = env.ctx.thread_id
                phase = L["round"] + 1 if label != START else 1
                if label == "wrote":
                    # Skewed arrival: without a working barrier the early
                    # threads would read flags the late ones have not written.
                    return Op(Compute(env.ctx.rng.jitter(50) + 200 * tid), "computed")
                if label == "computed":
                    return barrier_wait(barrier.sync_id, "arrived")
                if label == "arrived":
                    # After the barrier, every thread must have reached this phase.
                    L["flag"] = 0
                    return Op(Read(phase_flags[0]), "checked")
                if label == "checked":
                    if value < phase:
                        violations.append((tid, phase, value))
                    L["flag"] += 1
                    if L["flag"] < len(phase_flags):
                        return Op(Read(phase_flags[L["flag"]]), "checked")
                    return barrier_wait(barrier.sync_id, "left")
                if not rounds(frame, phases):
                    return Ret(None)
                return Op(Write(phase_flags[tid], L["round"] + 1), "wrote")

            return {"body": body, "violations": violations}

        machine, result, shared = run_machine(config_fn, factory)
        assert result.completed
        assert shared["violations"] == []

    @pytest.mark.parametrize("config_fn", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_barrier_reusable_many_times(self, config_fn):
        def factory(machine, program, sync):
            barrier = sync.create_barrier(4)

            def body(frame, value, env):
                if frame.label == "computed":
                    return barrier_wait(barrier.sync_id, "crossed")
                if not rounds(frame, 6):
                    return Ret(None)
                return Op(Compute(env.ctx.rng.jitter(30)), "computed")

            return {"body": body}

        machine, result, _ = run_machine(config_fn, factory, num_threads=4, cores=4)
        assert result.completed

    def test_single_thread_barrier_does_not_block(self):
        def factory(machine, program, sync):
            barrier = sync.create_barrier(1)

            def body(frame, value, env):
                if not rounds(frame, 2):
                    return Ret(None)
                return barrier_wait(barrier.sync_id, "crossed")

            return {"body": body}

        machine, result, _ = run_machine(wisync, factory, num_threads=1, cores=2)
        assert result.completed

    def test_tone_barrier_beats_wireless_barrier(self):
        def factory(machine, program, sync):
            barrier = sync.create_barrier(16)

            def body(frame, value, env):
                if frame.label == "computed":
                    return barrier_wait(barrier.sync_id, "crossed")
                if not rounds(frame, 4):
                    return Ret(None)
                return Op(Compute(30), "computed")

            return {"body": body}

        _, with_tone, _ = run_machine(wisync, factory, num_threads=16, cores=16)
        _, without_tone, _ = run_machine(wisync_not, factory, num_threads=16, cores=16)
        assert with_tone.total_cycles < without_tone.total_cycles

    def test_paper_ordering_baseline_much_slower(self):
        def factory(machine, program, sync):
            barrier = sync.create_barrier(16)

            def body(frame, value, env):
                if frame.label == "computed":
                    return barrier_wait(barrier.sync_id, "crossed")
                if not rounds(frame, 3):
                    return Ret(None)
                return Op(Compute(50), "computed")

            return {"body": body}

        _, base, _ = run_machine(baseline, factory, num_threads=16, cores=16)
        _, plus, _ = run_machine(baseline_plus, factory, num_threads=16, cores=16)
        _, ws, _ = run_machine(wisync, factory, num_threads=16, cores=16)
        assert ws.total_cycles < plus.total_cycles < base.total_cycles


class TestCellsAndReductions:
    @pytest.mark.parametrize("config_fn", ALL_CONFIGS, ids=CONFIG_IDS)
    def test_reduction_total_is_exact(self, config_fn):
        adds = 5

        def factory(machine, program, sync):
            total = sync.create_cell()

            def body(frame, value, env):
                if frame.label == "added":
                    return Op(Compute(env.ctx.rng.jitter(10)), "rested")
                if not rounds(frame, adds):
                    return Ret(None)
                return cell_fetch_add(total.sync_id, env.ctx.thread_id + 1, "added")

            return {"body": body, "total": total}

        machine, result, shared = run_machine(config_fn, factory, num_threads=6, cores=8)
        expected = adds * sum(range(1, 7))
        cell_addr = shared["total"].addr
        if machine.fabric is not None and not machine.fabric.is_spilled(cell_addr):
            assert machine.fabric.memory.read(cell_addr) == expected
        else:
            assert machine.memory.peek(cell_addr) == expected

    @pytest.mark.parametrize("config_fn", [baseline, wisync], ids=["baseline", "wisync"])
    def test_cas_cell_only_one_winner_per_round(self, config_fn):
        def factory(machine, program, sync):
            cell = sync.create_cell()
            wins = []

            def body(frame, value, env):
                if frame.label == START:
                    return cell_cas(cell.sync_id, 0, env.ctx.thread_id + 1, "swapped")
                success, _ = value
                if success:
                    wins.append(env.ctx.thread_id)
                return Ret(None)

            return {"body": body, "wins": wins}

        machine, result, shared = run_machine(config_fn, factory, num_threads=8)
        assert result.completed
        assert len(shared["wins"]) == 1


class TestProducerConsumerAndEureka:
    @pytest.mark.parametrize("config_fn", [baseline, wisync], ids=["baseline", "wisync"])
    def test_producer_consumer_transfers_payloads_in_order(self, config_fn):
        payload_count = 4

        def factory(machine, program, sync):
            channel = sync.create_channel()
            received = []

            def producer(frame, value, env):
                if not rounds(frame, payload_count):
                    return Ret(None)
                i = frame.locals["round"]
                return channel_produce(channel.sync_id, (i, i + 1, i + 2, i + 3), "sent")

            def consumer(frame, value, env):
                if frame.label == "received":
                    received.append(value)
                if not rounds(frame, payload_count):
                    return Ret(None)
                return channel_consume(channel.sync_id, "received")

            return {"producer": producer, "consumer": consumer, "received": received}

        machine = Manycore(config_fn(num_cores=4))
        program = machine.new_program("pc")
        sync = SyncFactory(program)
        shared = factory(machine, program, sync)
        program.add_thread(frame_body(machine, "pc.producer", shared["producer"]), core_id=0)
        program.add_thread(frame_body(machine, "pc.consumer", shared["consumer"]), core_id=1)
        result = machine.run()
        assert result.completed
        assert shared["received"] == [(i, i + 1, i + 2, i + 3) for i in range(payload_count)]

    @pytest.mark.parametrize("config_fn", [baseline, wisync], ids=["baseline", "wisync"])
    def test_eureka_or_barrier_releases_waiters(self, config_fn):
        def factory(machine, program, sync):
            eureka = sync.create_or_barrier()
            released = []

            def finder(frame, value, env):
                if frame.label == START:
                    return Op(Compute(200), "found")
                if frame.label == "found":
                    return eureka_post(eureka.sync_id, "posted")
                return Ret(None)

            def waiter(frame, value, env):
                if frame.label == START:
                    return eureka_wait(eureka.sync_id, "released")
                released.append(env.ctx.thread_id)
                return Ret(None)

            return {"finder": finder, "waiter": waiter, "released": released}

        machine = Manycore(config_fn(num_cores=4))
        program = machine.new_program("eureka")
        sync = SyncFactory(program)
        shared = factory(machine, program, sync)
        program.add_thread(frame_body(machine, "eureka.finder", shared["finder"]), core_id=0)
        waiter = frame_body(machine, "eureka.waiter", shared["waiter"])
        for core in (1, 2, 3):
            program.add_thread(waiter, core_id=core)
        result = machine.run()
        assert result.completed
        assert sorted(shared["released"]) == [1, 2, 3]

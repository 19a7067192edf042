"""Tests for the Manycore machine driver, programs, and results."""

import pytest

from frame_bodies import frame_body, op_sequence
from repro.cpu.frames import START, Call, FrameBody, Op, Ret
from repro.errors import DeadlockError, WorkloadError
from repro.isa.operations import (
    BmAlloc,
    BmLoad,
    BmStore,
    BmWaitUntil,
    Compute,
    Fence,
    Read,
    ToneStore,
    WaitUntil,
    Write,
)
from repro.machine.configs import baseline, wisync
from repro.machine.manycore import Manycore
from repro.machine.results import SimResult
from repro.sim.stats import StatsRegistry


def _noop_thread(machine):
    return op_sequence(machine, "noop", Compute(1))


class TestProgramAndThreads:
    def test_threads_placed_round_robin_by_default(self, wisync_machine):
        program = wisync_machine.new_program("p")
        body = _noop_thread(wisync_machine)
        threads = [program.add_thread(body) for _ in range(10)]
        assert [t.core_id for t in threads] == [i % 8 for i in range(10)]

    def test_alloc_shared_pads_to_cache_lines(self, wisync_machine):
        program = wisync_machine.new_program("p")
        a = program.alloc_shared()
        b = program.alloc_shared()
        assert b - a >= wisync_machine.config.cache.line_bytes

    def test_programs_get_disjoint_heaps(self, wisync_machine):
        first = wisync_machine.new_program("a")
        second = wisync_machine.new_program("b")
        assert first.pid != second.pid
        assert abs(first.alloc_shared() - second.alloc_shared()) >= (1 << 24)

    def test_private_addresses_are_per_thread(self, wisync_machine):
        program = wisync_machine.new_program("p")
        assert program.private_addr(0) != program.private_addr(1)

    def test_alloc_broadcast_on_wireless_machine(self, wisync_machine):
        program = wisync_machine.new_program("p")
        addr = program.alloc_broadcast(2)
        assert not wisync_machine.fabric.is_spilled(addr)

    def test_alloc_broadcast_on_baseline_machine_is_soft(self, baseline_machine):
        program = baseline_machine.new_program("p")
        addr = program.alloc_broadcast(1)
        assert isinstance(addr, int)

    def test_zero_word_allocation_rejected(self, wisync_machine):
        program = wisync_machine.new_program("p")
        with pytest.raises(WorkloadError):
            program.alloc_shared(0)


class TestRunSemantics:
    def test_compute_advances_time(self, any_machine):
        program = any_machine.new_program("p")
        program.add_thread(op_sequence(any_machine, "body", Compute(100), Fence()))
        result = any_machine.run()
        assert result.total_cycles >= 101
        assert result.completed

    def test_thread_results_collected(self, wisync_machine):
        program = wisync_machine.new_program("p")

        def step(frame, value, env):
            if frame.label == START:
                return Op(Compute(1), "computed")
            return Ret(env.ctx.thread_id * 10)

        body = frame_body(wisync_machine, "body", step)
        for _ in range(4):
            program.add_thread(body)
        result = wisync_machine.run()
        assert result.thread_results == [0, 10, 20, 30]

    def test_run_without_threads_rejected(self, wisync_machine):
        with pytest.raises(WorkloadError):
            wisync_machine.run()

    def test_machine_cannot_run_twice(self, wisync_machine):
        program = wisync_machine.new_program("p")
        program.add_thread(_noop_thread(wisync_machine))
        wisync_machine.run()
        with pytest.raises(WorkloadError):
            wisync_machine.run()

    def test_unsupported_operation_rejected(self, wisync_machine):
        program = wisync_machine.new_program("p")
        program.add_thread(op_sequence(wisync_machine, "body", "not an op"))
        with pytest.raises(WorkloadError, match="unsupported operation"):
            wisync_machine.run()

    def test_deadlock_detection(self, baseline_machine):
        program = baseline_machine.new_program("p")
        flag = program.alloc_shared()
        # Nobody ever writes the flag.
        program.add_thread(
            op_sequence(baseline_machine, "body", WaitUntil(flag, lambda v: v == 1))
        )
        with pytest.raises(DeadlockError):
            baseline_machine.run()

    def test_tone_ops_rejected_without_tone_channel(self, baseline_machine):
        program = baseline_machine.new_program("p")
        program.add_thread(op_sequence(baseline_machine, "body", ToneStore(0)))
        with pytest.raises(WorkloadError):
            baseline_machine.run()

    def test_bm_ops_work_end_to_end(self, wisync_machine):
        program = wisync_machine.new_program("p")
        observed = []

        def writer(frame, value, env):
            L, label = frame.locals, frame.label
            if label == START:
                return Op(BmAlloc(words=1), "allocated")
            if label == "allocated":
                L["addr"] = value
                observed.append(("addr", value))
                return Op(BmStore(value, 42), "stored")
            if label == "stored":
                return Op(BmLoad(L["addr"]), "loaded")
            observed.append(("load", value))
            return Ret(None)

        program.add_thread(frame_body(wisync_machine, "writer", writer))
        result = wisync_machine.run()
        assert result.completed
        assert ("load", 42) in observed

    def test_bm_wait_until_released_by_other_thread(self, wisync_machine):
        program = wisync_machine.new_program("p")
        addr = program.alloc_broadcast()
        order = []

        def waiter(frame, value, env):
            if frame.label == START:
                return Op(BmWaitUntil(addr, lambda v: v == 7), "woke")
            order.append(("woke", value))
            return Ret(None)

        def writer(frame, value, env):
            if frame.label == START:
                return Op(Compute(50), "computed")
            if frame.label == "computed":
                return Op(BmStore(addr, 7), "stored")
            order.append(("wrote", 7))
            return Ret(None)

        program.add_thread(frame_body(wisync_machine, "waiter", waiter), core_id=0)
        program.add_thread(frame_body(wisync_machine, "writer", writer), core_id=1)
        result = wisync_machine.run()
        assert result.completed
        assert ("woke", 7) in order

    def test_cached_rw_visible_across_threads(self, baseline_machine):
        program = baseline_machine.new_program("p")
        addr = program.alloc_shared()

        def reader(frame, value, env):
            if frame.label == START:
                return Op(Compute(500), "computed")
            if frame.label == "computed":
                return Op(Read(addr), "read")
            return Ret(value)

        writer = op_sequence(baseline_machine, "writer", Write(addr, 9))
        program.add_thread(writer, core_id=0)
        program.add_thread(frame_body(baseline_machine, "reader", reader), core_id=1)
        result = baseline_machine.run()
        assert result.thread_results[1] == 9


def _falls_off_its_end(frame, value, env):
    if frame.label == START:
        return Op(Compute(1), "computed")


def _returns_a_bare_operation(frame, value, env):
    return Compute(1)


def _calls_an_unregistered_routine(frame, value, env):
    return Call("t.nosuch", {}, "back")


def _generator_body(ctx):
    yield Compute(1)


@pytest.mark.parametrize(
    "step, body, match",
    [
        (_falls_off_its_end, "t.body",
         r"thread 0: frame routine 't.body' at label 'computed' returned None"),
        (_returns_a_bare_operation, "t.body",
         r"thread 0: frame routine 't.body' at label 'start' returned .*Compute"),
        (None, "t.nosuch",
         r"thread 0: frame routine 't.nosuch' at label 'start' names an unregistered"),
        (_calls_an_unregistered_routine, "t.body",
         r"thread 0: frame routine 't.nosuch' at label 'start' names an unregistered"),
        (None, _generator_body, r"thread bodies are FrameBody records"),
    ],
    ids=["falls-off-end", "bare-operation", "unregistered-body", "unregistered-call",
         "generator-function"],
)
def test_malformed_frame_programs_raise_workload_errors(step, body, match):
    """A broken thread body is a WorkloadError naming thread, routine and label."""
    machine = Manycore(wisync(num_cores=4))
    program = machine.new_program("p")
    if step is not None:
        machine.register_frame_routine("t.body", step)
    with pytest.raises(WorkloadError, match=match):
        program.add_thread(FrameBody(body) if isinstance(body, str) else body)
        machine.run()


class TestSimResult:
    def _result(self, cycles=1000, busy=100):
        stats = StatsRegistry()
        stats.counter("wireless/messages").add(10)
        stats.counter("wireless/collisions").add(2)
        stats.utilization("wireless/data_channel").add_busy(busy)
        return SimResult(
            config_name="wisync",
            num_cores=8,
            total_cycles=cycles,
            thread_cycles=[900, 1000],
            thread_results=[None, None],
            stats=stats,
            finished_threads=2,
            total_threads=2,
        )

    def test_utilization_fraction(self):
        result = self._result(cycles=1000, busy=100)
        assert result.data_channel_utilization() == pytest.approx(0.1)

    def test_speedup_over(self):
        fast = self._result(cycles=500)
        slow = self._result(cycles=2000)
        assert fast.speedup_over(slow) == 4.0

    def test_summary_contains_key_fields(self):
        summary = self._result().summary()
        assert summary["config"] == "wisync"
        assert summary["wireless_messages"] == 10
        assert summary["wireless_collisions"] == 2

    def test_thread_cycle_statistics(self):
        result = self._result()
        assert result.max_thread_cycles == 1000
        assert result.mean_thread_cycles == 950
        assert result.completed

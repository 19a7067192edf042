"""Tests for the Manycore machine driver, programs, and results."""

import dataclasses
import dis
import enum
import gc
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from frame_bodies import frame_body, op_sequence
from repro.cpu.frames import START, Call, FrameBody, Op, Ret
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ProtectionError,
    ReproError,
    ToneBarrierError,
    WorkloadError,
)
from repro.isa import operations
from repro.isa.operations import (
    BmAlloc,
    BmFree,
    BmLoad,
    BmStore,
    BmWaitUntil,
    Compute,
    Fence,
    Read,
    ToneBarrierAlloc,
    ToneStore,
    WaitUntil,
    Write,
)
from repro.machine.configs import baseline, wisync
from repro.machine.manycore import Manycore
from repro.machine.results import SimResult
from repro.runner.registry import REGISTRY
from repro.sim.stats import StatsRegistry
from repro.sync.api import SyncFactory
from repro.sync.frames import barrier_wait


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

    @pytest.mark.parametrize("core_id", [8, -1])
    def test_out_of_range_core_registers_no_thread(self, wisync_machine, core_id):
        program = wisync_machine.new_program("p")
        body = _noop_thread(wisync_machine)
        program.add_thread(body, core_id=0)
        with pytest.raises(ConfigurationError, match=f"core {core_id} out of range"):
            program.add_thread(body, core_id=core_id)
        assert [t.thread_id for t in wisync_machine.threads] == [0]
        assert program.threads == wisync_machine.threads
        assert wisync_machine.run().completed

    def test_pid_space_is_the_bm_tag_width(self):
        config = wisync(num_cores=2)
        machine = Manycore(config.replace(bm=dataclasses.replace(config.bm, pid_bits=2)))
        assert [machine.new_program(f"p{i}").pid for i in range(3)] == [1, 2, 3]
        with pytest.raises(ReproError, match="PID space exhausted"):
            machine.new_program("p3")
        assert len(machine.programs) == 3

    @pytest.mark.parametrize("pid_bits, last_pid", [(1, 1), (8, 255)])
    def test_last_pid_fills_the_tag(self, pid_bits, last_pid):
        config = wisync(num_cores=2)
        machine = Manycore(config.replace(bm=dataclasses.replace(config.bm, pid_bits=pid_bits)))
        for _ in range(last_pid):
            machine.new_program("p")
        assert machine.programs[-1].pid == last_pid
        with pytest.raises(ReproError, match="PID space exhausted"):
            machine.new_program("one too many")

    def test_programs_and_threads_are_the_process_table(self, wisync_machine):
        first = wisync_machine.new_program("a")
        second = wisync_machine.new_program("b")
        assert [p.pid for p in wisync_machine.programs] == [1, 2]
        body = _noop_thread(wisync_machine)
        placed = [
            first.add_thread(body, core_id=3),
            second.add_thread(body, core_id=3),
            first.add_thread(body, core_id=5),
        ]
        assert wisync_machine.threads == placed
        assert first.threads == [placed[0], placed[2]]
        assert second.threads == [placed[1]]
        assert [(t.thread_id, t.pid, t.core_id) for t in placed] == [
            (0, 1, 3), (1, 2, 3), (2, 1, 5),
        ]
        assert wisync_machine.run().completed

    def test_broadcast_allocations_carry_the_programs_pid(self, wisync_machine):
        first = wisync_machine.new_program("a")
        second = wisync_machine.new_program("b")
        a = first.alloc_broadcast(2)
        b = second.alloc_broadcast(1)
        memory = wisync_machine.fabric.memory
        assert [memory.owner_pid(addr) for addr in (a, a + 1, b)] == [1, 1, 2]

    def test_runtime_free_of_another_programs_entry_fails(self, wisync_machine):
        owner = wisync_machine.new_program("owner")
        other = wisync_machine.new_program("other")
        addr = owner.alloc_broadcast(1)
        other.add_thread(op_sequence(wisync_machine, "free", BmFree(addr)))
        with pytest.raises(ProtectionError, match=f"process 2 cannot free BM entry {addr}"):
            wisync_machine.run()
        assert wisync_machine.fabric.memory.owner_pid(addr) == 1


class TestToneBarrierPlacement:
    """Section 5.2: the Armed bit is per core, so two threads on one core may
    not share a tone barrier."""

    @pytest.mark.parametrize("threads_first", [True, False])
    def test_two_threads_on_an_armed_core_fail_the_run(self, threads_first):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        body = _noop_thread(machine)
        if threads_first:
            program.add_thread(body, core_id=0)
            program.add_thread(body, core_id=0)
        addr = program.alloc_broadcast(1, tone_capable=True, participants=[0, 1])
        if not threads_first:
            program.add_thread(body, core_id=0)
            program.add_thread(body, core_id=0)
        message = f"threads 1 and 0 on core 0 cannot both use tone barrier {addr}"
        with pytest.raises(ToneBarrierError, match=message):
            machine.run()

    def test_runtime_allocation_on_a_shared_core_fails(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        alloc = op_sequence(machine, "alloc", ToneBarrierAlloc(participants=(0, 1)))
        program.add_thread(alloc, core_id=0)
        idle = _noop_thread(machine)
        program.add_thread(idle, core_id=1)
        program.add_thread(idle, core_id=1)
        with pytest.raises(ToneBarrierError, match="threads 2 and 1 on core 1"):
            machine.run()

    def test_runtime_tone_capable_bm_alloc_on_a_shared_core_fails(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        op = BmAlloc(1, tone_capable=True, participants=(0, 1))
        program.add_thread(op_sequence(machine, "alloc", op), core_id=0)
        idle = _noop_thread(machine)
        program.add_thread(idle, core_id=1)
        program.add_thread(idle, core_id=1)
        with pytest.raises(ToneBarrierError, match="threads 2 and 1 on core 1"):
            machine.run()

    def test_runtime_allocation_without_participants_checks_every_core(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        op = BmAlloc(1, tone_capable=True)
        program.add_thread(op_sequence(machine, "alloc", op), core_id=0)
        idle = _noop_thread(machine)
        program.add_thread(idle, core_id=3)
        program.add_thread(idle, core_id=3)
        with pytest.raises(ToneBarrierError, match="threads 2 and 1 on core 3"):
            machine.run()

    def test_spilled_runtime_barrier_arms_no_core(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        program.alloc_broadcast(machine.fabric.memory.spill_base)  # fill the BM
        op = ToneBarrierAlloc(participants=(0, 1))
        program.add_thread(op_sequence(machine, "alloc", op), core_id=0)
        idle = _noop_thread(machine)
        program.add_thread(idle, core_id=1)
        program.add_thread(idle, core_id=1)
        assert machine.run().completed
        assert all(not node.tone_controller.alloc_b for node in machine.fabric.nodes)

    def test_one_thread_per_core_shares_a_barrier(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        barrier = SyncFactory(program).create_barrier(4)

        def step(frame, value, env):
            if frame.label == START:
                return barrier_wait(barrier.sync_id, "crossed")
            if frame.label == "crossed" and env.ctx.thread_id == 0:
                return Op(ToneBarrierAlloc(participants=(0, 1, 2, 3)), "allocated")
            return Ret(None)

        body = frame_body(machine, "crosser", step)
        for core in range(4):
            program.add_thread(body, core_id=core)
        assert machine.run().completed
        assert len(machine.fabric.nodes[3].tone_controller.alloc_b) == 2

    @pytest.mark.parametrize("threads_first", [True, False])
    def test_a_shared_core_the_barrier_does_not_arm_runs(self, threads_first):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        body = _noop_thread(machine)
        if threads_first:
            program.add_thread(body, core_id=2)
            program.add_thread(body, core_id=2)
        program.alloc_broadcast(1, tone_capable=True, participants=[0, 1])
        if not threads_first:
            program.add_thread(body, core_id=2)
            program.add_thread(body, core_id=2)
        assert machine.run().completed

    def test_barrier_without_participants_arms_every_core(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        addr = program.alloc_broadcast(1, tone_capable=True)
        body = _noop_thread(machine)
        for core in (0, 1, 3, 3):
            program.add_thread(body, core_id=core)
        with pytest.raises(ToneBarrierError, match=f"threads 3 and 2 on core 3 .* barrier {addr}"):
            machine.run()

    def test_plain_broadcast_variables_allow_shared_cores(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        program.alloc_broadcast(2)
        body = _noop_thread(machine)
        program.add_thread(body, core_id=0)
        program.add_thread(body, core_id=0)
        assert machine.run().completed

    def test_threads_of_two_programs_share_the_armed_bit(self):
        machine = Manycore(wisync(num_cores=4))
        owner = machine.new_program("owner")
        other = machine.new_program("other")
        owner.alloc_broadcast(1, tone_capable=True, participants=[0])
        body = _noop_thread(machine)
        owner.add_thread(body, core_id=0)
        other.add_thread(body, core_id=0)
        with pytest.raises(ToneBarrierError, match="threads 1 and 0 on core 0"):
            machine.run()

    def test_conflict_is_refused_before_any_cycle(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        program.alloc_broadcast(1, tone_capable=True, participants=[1])
        body = op_sequence(machine, "long", Compute(1_000))
        threads = [program.add_thread(body, core_id=1) for _ in range(2)]
        with pytest.raises(ToneBarrierError):
            machine.run()
        assert machine.sim.now == 0
        assert machine.sim.events_processed == 0
        assert all(t.start_cycle is None for t in threads)

    def test_freed_barrier_binds_no_thread(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        body = _noop_thread(machine)
        program.add_thread(body, core_id=0)
        program.add_thread(body, core_id=0)
        addr = program.alloc_broadcast(1, tone_capable=True, participants=[0, 1])
        machine.fabric.free(program.pid, addr)
        assert machine.run().completed

    def test_runtime_allocation_off_the_shared_core_runs(self):
        machine = Manycore(wisync(num_cores=4))
        program = machine.new_program("p")
        alloc = op_sequence(machine, "alloc", ToneBarrierAlloc(participants=(0, 2)))
        program.add_thread(alloc, core_id=0)
        idle = _noop_thread(machine)
        program.add_thread(idle, core_id=1)
        program.add_thread(idle, core_id=1)
        assert machine.run().completed
        assert len(machine.fabric.nodes[1].tone_controller.alloc_b) == 1


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


def test_broadcast_sends_leave_no_cycles():
    """``Manycore.advance`` pauses the collector because the event loop's
    churn is acyclic: every send, attempt, BM operation and RMW window is
    freed by reference counting once it settles, so none lives on as a
    cycle until the run ends."""
    records = {"_PendingSend", "_Attempt", "PendingBmOp", "_PendingRmw"}
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        machine = Manycore(wisync(num_cores=16))
        assert REGISTRY.build(machine, "rwlock", {"operations": 8}).run().completed
        gc.collect()
        leaked = Counter(
            type(obj).__name__ for obj in gc.garbage if type(obj).__name__ in records
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leaked, leaked


def test_operation_records_are_slotted_and_compare_by_value():
    """Thread bodies build one record per issued operation: each is a
    slotted dataclass with no instance ``__dict__``, equal by value."""
    records = [
        cls for cls in vars(operations).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    ]
    assert len(records) == 18
    for cls in records:
        assert "__slots__" in vars(cls), cls
        width = len(dataclasses.fields(cls))
        record = cls(*range(width))
        assert not hasattr(record, "__dict__"), cls
        assert record == cls(*range(width))
        assert record != cls(*range(1, width + 1))


#: Modules whose functions run once per simulated event or operation.
PER_EVENT_MODULES = (
    "repro.machine.manycore",
    "repro.mem.hierarchy",
    "repro.noc.mesh",
    "repro.sync.frames",
    "repro.core.bm_controller",
    "repro.core.fabric",
    "repro.wireless.channel",
    "repro.wireless.transceiver",
    "repro.cpu.thread",
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


@pytest.mark.parametrize("name", PER_EVENT_MODULES)
def test_per_event_code_reads_no_enum_member_through_its_class(name):
    """On Python 3.11 ``EnumType`` defines ``__getattr__``, which sends
    every ``Kind.MEMBER`` read down the slow generic attribute path, several
    times the cost of a module global.  The per-event modules bind the
    members they compare against as module constants; a function that loads
    an enum class as a global and reads an attribute off it (``LOAD_GLOBAL``
    then ``LOAD_ATTR``) brings the cost back."""
    module = importlib.import_module(name)
    source = Path(module.__file__).read_text(encoding="utf-8")
    found = []
    for code in _code_objects(compile(source, module.__file__, "exec")):
        instructions = list(dis.get_instructions(code))
        for load, attr in zip(instructions, instructions[1:]):
            if load.opname != "LOAD_GLOBAL" or attr.opname != "LOAD_ATTR":
                continue
            target = vars(module).get(load.argval)
            if isinstance(target, type) and issubclass(target, enum.Enum):
                found.append(f"{code.co_name}: {load.argval}.{attr.argval}")
    assert found == []


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

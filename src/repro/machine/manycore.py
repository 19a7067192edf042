"""The simulated manycore: dispatches thread operations to the timing models.

``Manycore`` owns one :class:`~repro.sim.engine.Simulator` and all subsystem
models.  Workload threads run on resumable frame stacks
(:mod:`repro.cpu.frames`); every operation from :mod:`repro.isa.operations`
a thread issues is executed here against the cached-memory hierarchy
(regular variables) or the WiSync broadcast fabric (broadcast variables),
and the thread resumes when the operation completes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.config import MachineConfig
from repro.core.bm_controller import RmwResult
from repro.core.fabric import BroadcastFabric
from repro.cpu.core import Core
from repro.cpu.frames import FrameBody, FrameEnv
from repro.cpu.thread import SimThread, ThreadContext, ThreadState
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    ToneBarrierError,
    WorkloadError,
)
from repro.isa import operations as ops
from repro.isa.predicates import Eq
from repro.sync.frames import SYNC_ROUTINES
from repro.machine.results import SimResult
from repro.mem.hierarchy import MemorySystem
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.collector import gc_paused
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatsRegistry

#: Base of the cached-memory arena used for workload shared variables.
SHARED_MEMORY_BASE = 0x1000_0000
#: Base of the cached-memory region backing spilled broadcast variables.
SPILL_MEMORY_BASE = 0x2000_0000
#: Base of the per-thread private memory regions.
PRIVATE_MEMORY_BASE = 0x4000_0000
#: Size of each thread's private region in bytes.
PRIVATE_REGION_BYTES = 1 << 20

# Bound once: on Python 3.11 ``EnumType`` defines ``__getattr__``, which
# sends every ``ThreadState.FINISHED`` read down the slow generic attribute
# path, and ``_advance`` reads it on every event.
_FINISHED = ThreadState.FINISHED


class Program:
    """One running program, the machine's process record: a PID, its threads,
    and its memory allocations."""

    STATE = ("_next_shared",)
    REBUILT = ("machine", "pid", "name", "threads")

    def __init__(self, machine: "Manycore", pid: int, name: str) -> None:
        self.machine = machine
        self.pid = pid
        self.name = name
        self.threads: List[SimThread] = []
        self._next_shared = SHARED_MEMORY_BASE + pid * (1 << 24)

    # ------------------------------------------------------------ allocation
    def alloc_shared(self, words: int = 1, align_line: bool = True) -> int:
        """Allocate cached (regular) shared memory; returns a byte address.

        Successive allocations are padded to distinct cache lines when
        ``align_line`` is set so that independent variables do not falsely
        share a line.
        """
        if words < 1:
            raise WorkloadError("allocation must request at least one word")
        line = self.machine.config.cache.line_bytes
        addr = self._next_shared
        size = words * 8
        if align_line:
            size = ((size + line - 1) // line) * line
        self._next_shared += size
        return addr

    def alloc_broadcast(
        self,
        words: int = 1,
        tone_capable: bool = False,
        participants: Optional[List[int]] = None,
    ) -> int:
        """Allocate broadcast-memory entries; returns a BM entry address.

        On machines without WiSync hardware this falls back to cached memory
        but still returns an address usable with the ``Bm*`` operations (the
        machine transparently routes them to the cache hierarchy), mirroring
        the paper's spill-to-plain-memory mechanism.
        """
        fabric = self.machine.fabric
        if fabric is None:
            return self.machine._alloc_soft_bm(words)
        return fabric.allocate(self.pid, words, tone_capable, participants).base_addr

    def private_addr(self, thread_id: int, offset_words: int = 0) -> int:
        """A per-thread private cached address (thread-local pools, stacks)."""
        return PRIVATE_MEMORY_BASE + thread_id * PRIVATE_REGION_BYTES + offset_words * 8

    # --------------------------------------------------------------- threads
    def add_thread(self, body: FrameBody, core_id: Optional[int] = None) -> SimThread:
        """Register a thread; by default thread ``i`` runs on core ``i % N``."""
        if not isinstance(body, FrameBody):
            raise WorkloadError(
                f"thread bodies are FrameBody records naming a registered frame "
                f"routine (see repro.cpu.frames), got {body!r}"
            )
        return self.machine._add_thread(self, body, core_id)

    @property
    def num_threads(self) -> int:
        return len(self.threads)


class Manycore:
    """A complete simulated chip plus the driver for workload threads."""

    STATE = (
        "sim", "threads", "programs", "cores", "memory", "mesh", "fabric",
        "sync_objects", "_finished", "_soft_bm_next", "_events_start",
    )
    REBUILT = (
        "config", "topology", "_bm_spill_base",  # the config and what it derives
        "frame_routines",  # made by the workload build
        "_schedule", "_dispatch_table", "_dispatch_get",  # hot-path bindings
        "stats", "rng",  # restored in place from the payload's own sections
        "_ran",  # set by begin() on the rebuilt machine
    )

    def __init__(self, config: MachineConfig) -> None:
        self.config = config.validate()
        self.sim = Simulator()
        self.stats = StatsRegistry()
        self.rng = DeterministicRng(config.seed, "machine")
        self.topology = MeshTopology.square_for(config.num_cores)
        self.mesh = MeshNetwork(self.topology, config.noc, self.stats)
        self.memory = MemorySystem(self.sim, config, self.mesh, self.stats)
        self.cores = [Core(core_id, config.core) for core_id in range(config.num_cores)]
        self.fabric: Optional[BroadcastFabric] = None
        if config.wisync_enabled:
            self.fabric = BroadcastFabric(self.sim, config, self.stats, self.rng.child("fabric"))
            for core_id in range(config.num_cores):
                self.fabric.create_node(core_id)
        self.threads: List[SimThread] = []
        self.programs: List[Program] = []
        # Frame support: synchronization objects registered by creation
        # order (frames reference them by stable ``sync_id``) and the routine
        # table the trampoline resolves step functions from.  Both are
        # rebuilt identically by a deterministic workload build, which is
        # what lets a native restore re-attach captured frame stacks.
        self.sync_objects: List[Any] = []
        self.frame_routines: Dict[str, Callable] = dict(SYNC_ROUTINES)
        self._finished = 0
        self._soft_bm_next = 0
        self._ran = False
        self._events_start = 0
        self._bm_spill_base = self.fabric.memory.spill_base if self.fabric is not None else 0
        # Hot-path bindings: one type-keyed dispatch table instead of an
        # isinstance chain, and bound methods so the inner loop does not
        # repeat attribute lookups for every executed operation.
        self._schedule = self.sim.schedule
        self._dispatch_table: Dict[type, Callable[[SimThread, Any], None]] = {
            ops.Compute: self._op_compute,
            ops.Fence: self._op_fence,
            ops.Read: self._op_read,
            ops.Write: self._op_write,
            ops.AtomicOp: self._op_atomic,
            ops.WaitUntil: self._op_wait_until,
            ops.BmAlloc: self._handle_bm_alloc,
            ops.BmFree: self._handle_bm_free,
            ops.BmLoad: self._handle_bm_load,
            ops.BmStore: self._handle_bm_store,
            ops.BmBulkLoad: self._handle_bm_bulk_load,
            ops.BmBulkStore: self._handle_bm_bulk_store,
            ops.BmRmw: self._handle_bm_rmw,
            ops.BmWaitUntil: self._handle_bm_wait,
            ops.ToneBarrierAlloc: self._handle_tone_alloc,
            ops.ToneStore: self._handle_tone_store,
            ops.ToneLoad: self._handle_tone_load,
            ops.ToneWait: self._handle_tone_wait,
        }
        # Bound .get of the table: _resolve_handler memoizes subclasses into
        # the same dict, so the binding stays valid.
        self._dispatch_get = self._dispatch_table.get

    # -------------------------------------------------------------- programs
    def register_sync(self, obj: Any) -> int:
        """Give a synchronization object a stable creation-order id.

        Frame locals refer to primitives by this id instead of holding the
        object, keeping frames plain data; the snapshot codec uses the same
        ids to capture and restore primitive-internal state (sense flags,
        MCS queue nodes).
        """
        sync_id = len(self.sync_objects)
        obj.sync_id = sync_id
        self.sync_objects.append(obj)
        return sync_id

    def register_frame_routine(self, name: str, step: Callable) -> None:
        """Register a workload-built routine (closure over build constants).

        Build functions are deterministic, so a restore rebuilds the exact
        same routines under the exact same names before frames re-attach.
        """
        if name in self.frame_routines:
            raise WorkloadError(f"frame routine {name!r} is already registered")
        self.frame_routines[name] = step

    def new_program(self, name: str = "program") -> Program:
        """Start a program; PIDs count from 1 and must fit the BM's PID tag."""
        pid = len(self.programs) + 1
        if pid >= 1 << self.config.bm.pid_bits:
            raise ReproError("process table full: PID space exhausted")
        program = Program(self, pid, name)
        self.programs.append(program)
        return program

    def _add_thread(
        self, program: Program, body: FrameBody, core_id: Optional[int]
    ) -> SimThread:
        thread_id = len(self.threads)
        if core_id is None:
            core_id = thread_id % self.config.num_cores
        elif not 0 <= core_id < self.config.num_cores:
            raise ConfigurationError(f"core {core_id} out of range")
        context = ThreadContext(
            thread_id=thread_id,
            core_id=core_id,
            num_threads=0,  # patched in run(); programs may still add threads
            pid=program.pid,
            rng=self.rng.child(f"thread{thread_id}"),
        )
        thread = SimThread(thread_id, core_id, program.pid, body, context)
        thread.bind_resume(self._advance)
        thread.frame_env = FrameEnv(self, thread)
        self.threads.append(thread)
        program.threads.append(thread)
        return thread

    def _alloc_soft_bm(self, words: int) -> int:
        """Allocate pseudo-BM addresses on machines without wireless hardware."""
        addr = self._soft_bm_next
        self._soft_bm_next += words
        return addr

    # ------------------------------------------------------------------ run
    #: Default event budget before a run is declared a livelock.
    DEFAULT_MAX_EVENTS = 50_000_000

    def run(self, max_cycles: Optional[int] = None, max_events: int = DEFAULT_MAX_EVENTS) -> SimResult:
        """Run every registered thread to completion and collect results.

        One uninterrupted :meth:`begin` / :meth:`advance` / :meth:`finish`
        sequence; checkpointed executions drive the same three phases with
        :meth:`advance` called in event slices (slicing is behaviour-
        preserving — the event loop is a pure function of its queue state).
        """
        self.begin()
        self.advance(max_events=max_events, max_cycles=max_cycles)
        return self.finish(max_cycles=max_cycles, max_events=max_events)

    def begin(self) -> None:
        """Arm the run: validate threads and schedule every thread start."""
        if self._ran:
            raise WorkloadError("this Manycore has already run; build a fresh one per experiment")
        self._ran = True
        if not self.threads:
            raise WorkloadError("no threads registered; add threads through a Program first")
        if self.fabric is not None:
            self._check_armed_tone_barriers()
        for thread in self.threads:
            thread.context.num_threads = len(self.threads)
        for thread in self.threads:
            self.sim.schedule(0, self._start_thread, thread)
        self._events_start = self.sim.events_processed

    def advance(self, max_events: Optional[int] = None, max_cycles: Optional[int] = None) -> int:
        """Fire up to ``max_events`` events; returns how many actually fired.

        The engine runs the whole event loop; _advance calls ``sim.stop()``
        the moment the last thread finishes, so the driver pays no
        per-event Python call to poll for termination.
        """
        sim = self.sim
        before = sim.events_processed
        # Reference counting frees the event loop's acyclic churn, so a
        # collector scan finds nothing to free (repro.sim.collector);
        # tests/test_machine.py::test_broadcast_sends_leave_no_cycles keeps
        # the wireless path's records acyclic.  Under execute_spec the
        # collector is already paused for the whole spec, so this pause is a
        # no-op there; it serves direct run() and advance() callers.
        with gc_paused():
            sim.run(max_events=max_events, stop_at=max_cycles)
        return sim.events_processed - before

    def run_complete(self, max_cycles: Optional[int] = None) -> bool:
        """True when no further :meth:`advance` can change the run's outcome:
        every thread finished, the cycle budget truncated the run, or the
        event queue drained with threads still blocked (a deadlock, which
        :meth:`finish` reports)."""
        if self._finished >= len(self.threads):
            return True
        if max_cycles is not None and self.sim.now >= max_cycles:
            return True
        return self.sim.pending_events == 0

    def finish(
        self, max_cycles: Optional[int] = None, max_events: int = DEFAULT_MAX_EVENTS
    ) -> SimResult:
        """Check how the run ended (truncation/deadlock) and build the result."""
        truncated = False
        sim = self.sim
        if self._finished < len(self.threads):
            if max_cycles is not None and sim.now >= max_cycles:
                # Only a truncation if the budget actually cut threads short;
                # a run whose last thread finishes exactly on the boundary is
                # still converged.
                truncated = True
            elif sim.events_processed - self._events_start >= max_events:
                raise DeadlockError(f"simulation exceeded {max_events} events")
            else:
                blocked = [t.thread_id for t in self.threads if not t.finished]
                raise DeadlockError(
                    f"simulation deadlocked at cycle {sim.now}; "
                    f"blocked threads: {blocked[:16]}"
                )
        return self._build_result(truncated)

    # ------------------------------------------------------------ internals
    def _check_tone_barrier(self, addr: int, cores: Iterable[int]) -> None:
        """Section 5.2: two threads on one core may not share a tone barrier,
        because the barrier's Armed bit is per core."""
        for core in cores:
            sharing = [t.thread_id for t in self.threads if t.core_id == core]
            if len(sharing) > 1:
                raise ToneBarrierError(
                    f"threads {sharing[1]} and {sharing[0]} on core {core} "
                    f"cannot both use tone barrier {addr}"
                )

    def _check_armed_tone_barriers(self) -> None:
        """Check every tone barrier the build allocated, on each core it is
        armed on."""
        for node in self.fabric.nodes:
            for addr, entry in node.tone_controller.alloc_b.items():
                if entry.armed:
                    self._check_tone_barrier(addr, (node.node_id,))

    def _start_thread(self, thread: SimThread) -> None:
        thread.start_cycle = self.sim.now
        thread.start()
        self._advance(thread, None)

    def _advance(self, thread: SimThread, value: Any) -> None:
        if thread.state is _FINISHED:
            return
        try:
            operation = thread.send(value)
        except StopIteration as stop:
            thread.state = _FINISHED
            thread.finish_cycle = self.sim.now
            thread.result = stop.value
            self._finished += 1
            if self._finished >= len(self.threads):
                self.sim.stop()
            return
        thread.operations_issued += 1
        # Dispatch: one type-keyed dict probe per operation; subclasses fall
        # back to _resolve_handler, which memoizes them into the table.
        handler = self._dispatch_get(operation.__class__)
        if handler is None:
            handler = self._resolve_handler(thread, operation)
        handler(thread, operation)

    def _resume(self, thread: SimThread, delay: int, value: Any = None) -> None:
        self._schedule(delay if delay > 0 else 0, self._advance, thread, value)

    # ------------------------------------------------------------- dispatch
    def _resolve_handler(self, thread: SimThread, op: Any) -> Callable[[SimThread, Any], None]:
        """Slow path for operation subclasses: resolve by isinstance, memoize."""
        for op_type, handler in list(self._dispatch_table.items()):
            if isinstance(op, op_type):
                self._dispatch_table[op.__class__] = handler
                return handler
        raise WorkloadError(f"thread {thread.thread_id} issued unsupported operation {op!r}")

    # The hottest handlers inline _resume and Core.add_memory_stall: one
    # schedule call and two attribute updates instead of three method calls
    # per executed memory operation.
    def _op_compute(self, thread: SimThread, op: ops.Compute) -> None:
        cycles = op.cycles
        self.cores[thread.core_id].run_compute(cycles)
        self._schedule(cycles if cycles > 0 else 0, self._advance, thread, None)

    def _op_fence(self, thread: SimThread, op: ops.Fence) -> None:
        cycles = op.cycles
        self._schedule(cycles if cycles > 0 else 0, self._advance, thread, None)

    def _op_read(self, thread: SimThread, op: ops.Read) -> None:
        value, completion = self.memory.read(thread.core_id, op.addr, op.size)
        stall = completion - self.sim.now
        if stall > 0:
            self.cores[thread.core_id].memory_stall_cycles += stall
        else:
            stall = 0
        self._schedule(stall, self._advance, thread, value)

    def _op_write(self, thread: SimThread, op: ops.Write) -> None:
        completion = self.memory.write(thread.core_id, op.addr, op.value, op.size)
        stall = completion - self.sim.now
        if stall > 0:
            self.cores[thread.core_id].memory_stall_cycles += stall
        else:
            stall = 0
        self._schedule(stall, self._advance, thread, None)

    def _op_atomic(self, thread: SimThread, op: ops.AtomicOp) -> None:
        old, success, completion = self.memory.atomic(
            thread.core_id, op.addr, op.kind, op.operand, op.expected
        )
        stall = completion - self.sim.now
        if stall > 0:
            self.cores[thread.core_id].memory_stall_cycles += stall
        else:
            stall = 0
        self._schedule(stall, self._advance, thread, (old, success))

    def _op_wait_until(self, thread: SimThread, op: ops.WaitUntil) -> None:
        self.memory.wait_until(thread.core_id, op.addr, op.predicate, thread.resume)

    # -------------------------------------------------- BM dispatch helpers
    def _bm_is_soft(self, addr: int) -> bool:
        """True when the BM address must be served by the cache hierarchy.

        Inlined arithmetic: the spill base is a config constant, so the
        check is one comparison instead of two calls into the allocator.
        """
        return self.fabric is None or addr >= self._bm_spill_base

    def _soft_bm_cached_addr(self, addr: int) -> int:
        return SPILL_MEMORY_BASE + addr * 8

    def _allocate(
        self,
        thread: SimThread,
        words: int,
        tone_capable: bool,
        participants: Optional[Sequence[int]],
    ) -> None:
        """A run-time BM allocation; the allocation instruction broadcasts one
        wireless message.  A tone barrier gets the Section 5.2 check on every
        core the fabric armed it on: ``participants``, or every core when
        that is ``None``; a spilled allocation arms none."""
        allocation = self.fabric.allocate(thread.pid, words, tone_capable, participants)
        if tone_capable and not allocation.spilled:
            armed = participants if participants is not None else range(len(self.fabric.nodes))
            self._check_tone_barrier(allocation.base_addr, armed)
        self._resume(thread, self.config.data_channel.message_cycles, allocation.base_addr)

    def _handle_bm_alloc(self, thread: SimThread, op: ops.BmAlloc) -> None:
        if self.fabric is None:
            addr = self._alloc_soft_bm(op.words)
            self._resume(thread, self.config.bm.round_trip, addr)
            return
        self._allocate(thread, op.words, op.tone_capable, op.participants)

    def _handle_bm_free(self, thread: SimThread, op: ops.BmFree) -> None:
        if self.fabric is not None:
            self.fabric.free(thread.pid, op.addr, op.words)
        self._resume(thread, self.config.data_channel.message_cycles)

    def _handle_bm_load(self, thread: SimThread, op: ops.BmLoad) -> None:
        if self._bm_is_soft(op.addr):
            value, completion = self.memory.read(thread.core_id, self._soft_bm_cached_addr(op.addr))
            self._resume(thread, completion - self.sim.now, value)
            return
        node = self.fabric.nodes[thread.core_id]
        value, latency = node.bm_controller.load(op.addr)
        self._resume(thread, latency, value)

    def _handle_bm_store(self, thread: SimThread, op: ops.BmStore) -> None:
        if self._bm_is_soft(op.addr):
            completion = self.memory.write(
                thread.core_id, self._soft_bm_cached_addr(op.addr), op.value
            )
            self._resume(thread, completion - self.sim.now)
            return
        node = self.fabric.nodes[thread.core_id]
        node.bm_controller.store(op.addr, op.value, thread.resume_none)

    def _handle_bm_bulk_load(self, thread: SimThread, op: ops.BmBulkLoad) -> None:
        if self._bm_is_soft(op.addr):
            values = []
            completion = self.sim.now
            for offset in range(4):
                value, completion = self.memory.read(
                    thread.core_id, self._soft_bm_cached_addr(op.addr + offset)
                )
                values.append(value)
            self._resume(thread, completion - self.sim.now, tuple(values))
            return
        node = self.fabric.nodes[thread.core_id]
        values, latency = node.bm_controller.bulk_load(op.addr)
        self._resume(thread, latency, values)

    def _handle_bm_bulk_store(self, thread: SimThread, op: ops.BmBulkStore) -> None:
        values = tuple(op.values)
        if len(values) != 4:
            raise WorkloadError("bulk stores transfer exactly four words")
        if self._bm_is_soft(op.addr):
            completion = self.sim.now
            for offset, value in enumerate(values):
                completion = self.memory.write(
                    thread.core_id, self._soft_bm_cached_addr(op.addr + offset), value
                )
            self._resume(thread, completion - self.sim.now)
            return
        node = self.fabric.nodes[thread.core_id]
        node.bm_controller.bulk_store(op.addr, values, thread.resume_none)

    def _handle_bm_rmw(self, thread: SimThread, op: ops.BmRmw) -> None:
        if self._bm_is_soft(op.addr):
            old, success, completion = self.memory.atomic(
                thread.core_id,
                self._soft_bm_cached_addr(op.addr),
                op.kind,
                op.operand,
                op.expected,
            )
            result = RmwResult(old, success, False, completion)
            self._resume(thread, completion - self.sim.now, result)
            return
        node = self.fabric.nodes[thread.core_id]
        node.bm_controller.rmw(op.addr, op.kind, thread.resume, op.operand, op.expected)

    def _handle_bm_wait(self, thread: SimThread, op: ops.BmWaitUntil) -> None:
        if self._bm_is_soft(op.addr):
            self.memory.wait_until(
                thread.core_id,
                self._soft_bm_cached_addr(op.addr),
                op.predicate,
                thread.resume,
            )
            return
        self.fabric.wait_until(op.addr, op.predicate, thread.resume)

    # ------------------------------------------------- tone dispatch helpers
    def _require_tone(self, thread: SimThread) -> None:
        if self.fabric is None or self.fabric.tone_channel is None:
            raise WorkloadError(
                f"thread {thread.thread_id} used a tone operation on configuration "
                f"{self.config.name!r}, which has no tone channel"
            )

    def _handle_tone_alloc(self, thread: SimThread, op: ops.ToneBarrierAlloc) -> None:
        self._require_tone(thread)
        self._allocate(thread, 1, True, list(op.participants))

    def _handle_tone_store(self, thread: SimThread, op: ops.ToneStore) -> None:
        self._require_tone(thread)
        node = self.fabric.nodes[thread.core_id]
        node.tone_controller.arrive(op.addr)
        self._resume(thread, self.config.bm.round_trip)

    def _handle_tone_load(self, thread: SimThread, op: ops.ToneLoad) -> None:
        self._require_tone(thread)
        value = self.fabric.memory.entry(op.addr).value
        self._resume(thread, self.config.bm.round_trip, value)

    def _handle_tone_wait(self, thread: SimThread, op: ops.ToneWait) -> None:
        self._require_tone(thread)
        self.fabric.wait_until(op.addr, Eq(op.local_sense), thread.resume)

    # --------------------------------------------------------------- results
    def _build_result(self, truncated: bool = False) -> SimResult:
        # Unfinished threads (truncated runs) are charged the cycles they
        # actually spent running, measured from their own start cycle.
        thread_cycles = [
            t.elapsed_cycles
            if t.elapsed_cycles is not None
            else self.sim.now - (t.start_cycle or 0)
            for t in self.threads
        ]
        return SimResult(
            config_name=self.config.name,
            num_cores=self.config.num_cores,
            total_cycles=self.sim.now,
            thread_cycles=thread_cycles,
            thread_results=[t.result for t in self.threads],
            stats=self.stats,
            finished_threads=self._finished,
            total_threads=len(self.threads),
            completed=self._finished == len(self.threads) and not truncated,
            events_processed=self.sim.events_processed,
        )

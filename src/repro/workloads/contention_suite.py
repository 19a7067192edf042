"""Contention-scenario suite: non-paper synchronization workloads.

The paper's evaluation (fig7-fig10) exercises a fixed grid of kernels.  This
module grows the repository into a *scenario engine*: a family of
parameterized synchronization patterns whose whole point is to stress the
broadcast plane — and its MAC backoff policies — under varied contention:

* ``pc_ring``       — producer/consumer ring over SPSC channels with a shared
                      :class:`~repro.sync.cells.AtomicCell` throughput counter.
* ``rwlock``        — readers-writer lock over one atomic word, read/write mix.
* ``work_steal``    — work stealing from per-thread atomic task pools with
                      eureka (:class:`~repro.sync.eureka.OrBarrier`) termination.
* ``barrier_storm`` — back-to-back barrier episodes with skewed arrival times.
* ``mixed_phases``  — an "app-like" alternation of lock, reduction, and
                      pipeline phases separated by barriers.

Every builder is registered with :func:`~repro.runner.registry.register_workload`,
so the scenarios are sweepable over cores x Table 2 config x contention level
x backoff policy through :mod:`repro.experiments.scenarios` and the
``python -m repro run scenarios`` CLI.  :data:`SCENARIOS` is the catalog the
``python -m repro scenarios`` listing renders.

Every thread body is a frame routine (:mod:`repro.cpu.frames`) that reaches
the primitives through the :mod:`repro.sync.frames` helpers, so a scenario
run checkpoints and restores natively at any event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cpu.frames import START, FrameBody, Op, Ret
from repro.errors import WorkloadError
from repro.isa.operations import Compute, Read, Write
from repro.machine.manycore import Manycore
from repro.runner.registry import register_workload
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
    rwlock_acquire_read,
    rwlock_acquire_write,
    rwlock_release_read,
    rwlock_release_write,
)
from repro.workloads.base import WorkloadHandle


@dataclass(frozen=True)
class ScenarioInfo:
    """Catalog entry for one contention scenario."""

    name: str
    summary: str
    knobs: Tuple[Tuple[str, object], ...]   # (knob name, default value)
    example: str

    def knobs_dict(self) -> Dict[str, object]:
        return dict(self.knobs)


#: name -> catalog entry, populated by ``_scenario`` below.
SCENARIOS: Dict[str, ScenarioInfo] = {}


def scenario_names() -> List[str]:
    """Names of every registered contention scenario."""
    return sorted(SCENARIOS)


def scenario_info(name: str) -> ScenarioInfo:
    if name not in SCENARIOS:
        raise WorkloadError(
            f"unknown scenario {name!r}; known scenarios: {scenario_names()}"
        )
    return SCENARIOS[name]


def _scenario(summary: str, knobs: Tuple[Tuple[str, object], ...], example: str):
    """Register a builder both as a workload and in the scenario catalog."""

    def decorator(builder):
        name = builder.__name__.replace("build_", "")
        SCENARIOS[name] = ScenarioInfo(name, summary, knobs, example)
        return register_workload(name)(builder)

    return decorator


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WorkloadError(message)


# ---------------------------------------------------------------------------
# pc_ring: producer/consumer ring
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "producer/consumer ring: thread i feeds an SPSC channel to thread i+1 "
        "and bumps a shared AtomicCell item counter"
    ),
    knobs=(("items", 6), ("think_cycles", 120), ("num_threads", None)),
    example="python -m repro run scenarios --scenarios pc_ring --cores 16 --progress",
)
def build_pc_ring(
    machine: Manycore,
    items: int = 6,
    think_cycles: int = 120,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each thread produces ``items`` payloads downstream and consumes upstream.

    The shared item counter makes every handoff also hit one hot atomic word,
    so the channel traffic and the counter's RMW traffic contend for the same
    broadcast plane; lower ``think_cycles`` means denser contention.
    """
    _require(items >= 1, "pc_ring needs items >= 1")
    _require(think_cycles >= 0, "pc_ring think_cycles must be >= 0")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("pc_ring")
    sync = SyncFactory(program)
    channel_sids = [sync.create_channel().sync_id for _ in range(num_threads)]
    counter_sid = sync.create_cell().sync_id

    def body(frame, value, env):
        # Per item: think, produce downstream, consume upstream, count it.
        L, label = frame.locals, frame.label
        me = env.ctx.thread_id
        if label == "produced":
            return channel_consume(channel_sids[(me - 1) % num_threads], "consumed")
        if label == "consumed":
            L["checksum"] += value[3]
            return cell_fetch_add(counter_sid, 1, "counted")
        if label == START:
            L["item"] = 0
            L["checksum"] = 0
        elif label == "counted":
            L["item"] += 1
        item = L["item"]
        if item == items:
            return Ret(L["checksum"])
        if think_cycles and label != "thought":
            return Op(Compute(env.ctx.rng.jitter(think_cycles, fraction=0.2)), "thought")
        return channel_produce(channel_sids[me], (me, item, me ^ item, item + 1), "produced")

    machine.register_frame_routine("pc_ring.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("pc_ring.body"))
    return WorkloadHandle(
        name="pc_ring",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": items,
            "total_items": items * num_threads,
            # Completed operations = ring handoffs (each produce+consume pair).
            "operations": items * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# rwlock: readers-writer lock
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "readers-writer lock over one atomic word; threads mix shared reads "
        "with exclusive writes of a small table"
    ),
    knobs=(
        ("operations", 8), ("write_fraction", 0.2), ("read_cycles", 40),
        ("write_cycles", 80), ("think_cycles", 100), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios rwlock "
        "--contention high --progress"
    ),
)
def build_rwlock(
    machine: Manycore,
    operations: int = 8,
    write_fraction: float = 0.2,
    read_cycles: int = 40,
    write_cycles: int = 80,
    think_cycles: int = 100,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each thread performs ``operations`` reads/writes under the rwlock.

    ``write_fraction`` steers the exclusive share: 0.0 degenerates to pure
    reader throughput (one CAS per entry), 1.0 serializes everything.
    """
    _require(operations >= 1, "rwlock needs operations >= 1")
    _require(0.0 <= write_fraction <= 1.0, "rwlock write_fraction must be in [0, 1]")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("rwlock")
    sync = SyncFactory(program)
    rwlock_sid = sync.create_rwlock().sync_id
    table = [program.alloc_shared() for _ in range(8)]

    def body(frame, value, env):
        # Per operation: think, draw read or write, then lock, touch the
        # table, hold, unlock.
        L, label = frame.locals, frame.label
        ctx = env.ctx
        op = L["op"] if label != START else 0
        if label == "acquired":
            addr = table[(ctx.thread_id + op) % len(table)]
            return Op(Write(addr, op) if L["write"] else Read(addr), "accessed")
        if label == "accessed":
            return Op(Compute(write_cycles if L["write"] else read_cycles), "held")
        if label == "held":
            if L["write"]:
                return rwlock_release_write(rwlock_sid, "released")
            return rwlock_release_read(rwlock_sid, "released")
        if label == START:
            L["op"] = L["reads"] = L["writes"] = 0
        elif label == "released":
            L["writes" if L["write"] else "reads"] += 1
            op = L["op"] = op + 1
        if op == operations:
            return Ret((L["reads"], L["writes"]))
        if think_cycles and label != "thought":
            return Op(Compute(ctx.rng.jitter(think_cycles, fraction=0.2)), "thought")
        L["write"] = ctx.rng.random() < write_fraction
        if L["write"]:
            return rwlock_acquire_write(rwlock_sid, "acquired")
        return rwlock_acquire_read(rwlock_sid, "acquired")

    machine.register_frame_routine("rwlock.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("rwlock.body"))
    return WorkloadHandle(
        name="rwlock",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": operations,
            "write_fraction": write_fraction,
            # Completed operations = lock-protected reads + writes, all threads.
            "operations": operations * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# work_steal: work stealing with eureka termination
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "work stealing from per-thread atomic task pools; the thread that "
        "finishes the last task posts an OrBarrier eureka"
    ),
    knobs=(
        ("tasks_per_thread", 6), ("task_cycles", 150), ("seed_stride", 1),
        ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios work_steal "
        "--backoffs broadcast_aware,exponential --progress"
    ),
)
def build_work_steal(
    machine: Manycore,
    tasks_per_thread: int = 6,
    task_cycles: int = 150,
    seed_stride: int = 1,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Threads drain atomic task pools, stealing from neighbours when empty.

    ``seed_stride`` skews the initial distribution: with stride ``s`` only
    every ``s``-th thread is seeded (with ``s`` times the work), so the other
    threads must steal from the start — the eureka/termination traffic and
    the steal CASes all land on the broadcast plane at once.  Completion is
    detected with a shared done-counter; whoever retires the last task posts
    the :class:`~repro.sync.eureka.OrBarrier` and everyone else blocks on it.

    Pools are drained with a CAS pop rather than a blind fetch&add(-1): BM
    entries are unsigned 64-bit words, so decrementing an empty pool would
    wrap to ``2**64 - 1`` and read back as claimable work.
    """
    _require(tasks_per_thread >= 1, "work_steal needs tasks_per_thread >= 1")
    _require(seed_stride >= 1, "work_steal seed_stride must be >= 1")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("work_steal")
    sync = SyncFactory(program)
    seeds = [
        tasks_per_thread * seed_stride if tid % seed_stride == 0 else 0
        for tid in range(num_threads)
    ]
    total_tasks = sum(seeds)
    pools = [sync.create_cell() for _ in range(num_threads)]
    done_sid = sync.create_cell().sync_id
    eureka_sid = sync.create_or_barrier().sync_id
    barrier_sid = sync.create_barrier(num_threads).sync_id

    def scan(L, me, offset):
        """Try the pools from ``me + offset`` on; wait for the eureka when
        every seeded pool has been found empty."""
        while offset < num_threads:
            victim = (me + offset) % num_threads
            if seeds[victim]:  # an unseeded pool never holds work
                L["offset"] = offset
                return Op(pools[victim].read_op(), "pool_read")
            offset += 1
        # Every pool is drained; wait for the last in-flight task.
        return eureka_wait(eureka_sid, "finished")

    def body(frame, value, env):
        # Seed the local pool, rendezvous so nobody steals from an unseeded
        # pool, then CAS-pop tasks (own pool first) until all are retired.
        L, label = frame.locals, frame.label
        me = env.ctx.thread_id
        if label == START:
            L["processed"] = 0
            return Op(pools[me].write_op(seeds[me]), "seeded")
        if label == "seeded":
            return barrier_wait(barrier_sid, "scan")
        if label == "scan":
            return scan(L, me, 0)
        if label == "finished":
            return Ret(L["processed"])
        victim = (me + L["offset"]) % num_threads
        if label == "pool_read":
            if value == 0:
                return scan(L, me, L["offset"] + 1)
            return cell_cas(pools[victim].sync_id, value, value - 1, "popped")
        if label == "popped":
            if not value[0]:
                # Lost the race; the winner made progress, so re-read.
                return Op(pools[victim].read_op(), "pool_read")
            return Op(Compute(env.ctx.rng.jitter(task_cycles, fraction=0.1)), "worked")
        if label == "worked":
            addr = program.private_addr(me, L["processed"] % 64)
            return Op(Write(addr, victim + 1), "recorded")
        if label == "recorded":
            L["processed"] += 1
            return cell_fetch_add(done_sid, 1, "retired")
        # label == "retired"
        if value + 1 == total_tasks:
            return eureka_post(eureka_sid, "finished")
        return scan(L, me, 0)

    machine.register_frame_routine("work_steal.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("work_steal.body"))
    return WorkloadHandle(
        name="work_steal",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": tasks_per_thread,
            "total_tasks": total_tasks,
            # Completed operations = tasks retired (conserved under stealing).
            "operations": total_tasks,
        },
    )


# ---------------------------------------------------------------------------
# barrier_storm: phased barriers with skewed arrival
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "back-to-back barrier episodes; arrival skew makes late threads hit "
        "an already-contended release wave"
    ),
    knobs=(
        ("phases", 4), ("storms_per_phase", 2), ("compute_cycles", 200),
        ("skew", 0.5), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios barrier_storm "
        "--configs WiSync,Baseline --progress"
    ),
)
def build_barrier_storm(
    machine: Manycore,
    phases: int = 4,
    storms_per_phase: int = 2,
    compute_cycles: int = 200,
    skew: float = 0.5,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Each phase computes (skewed per thread) then crosses several barriers.

    ``skew`` scales per-thread compute linearly with the thread id, so high
    skew spreads arrivals out (the paper's worst case for centralized
    barriers) while ``storms_per_phase`` packs release waves back to back
    (the worst case for the MAC).
    """
    _require(phases >= 1, "barrier_storm needs phases >= 1")
    _require(storms_per_phase >= 1, "barrier_storm needs storms_per_phase >= 1")
    _require(skew >= 0.0, "barrier_storm skew must be >= 0")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("barrier_storm")
    sync = SyncFactory(program)
    barrier_sid = sync.create_barrier(num_threads).sync_id
    spread = max(1, num_threads - 1)

    def body(frame, value, env):
        # Per phase: skewed compute, then storms_per_phase barriers.
        L, label = frame.locals, frame.label
        if label == "computed":
            L["storm"] = 1
            return barrier_wait(barrier_sid, "crossed")
        if label == START:
            L["phase"] = 0
        elif L["storm"] < storms_per_phase:  # label == "crossed"
            L["storm"] += 1
            return barrier_wait(barrier_sid, "crossed")
        else:
            L["phase"] += 1
        if L["phase"] == phases:
            return Ret(phases)
        slowdown = 1.0 + skew * env.ctx.thread_id / spread
        cycles = env.ctx.rng.jitter(int(compute_cycles * slowdown), fraction=0.1)
        return Op(Compute(cycles), "computed")

    machine.register_frame_routine("barrier_storm.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("barrier_storm.body"))
    return WorkloadHandle(
        name="barrier_storm",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": phases,
            "barriers": phases * storms_per_phase,
            # Completed operations = barrier crossings over all threads.
            "operations": phases * storms_per_phase * num_threads,
        },
    )


# ---------------------------------------------------------------------------
# mixed_phases: app-like alternation of synchronization styles
# ---------------------------------------------------------------------------
@_scenario(
    summary=(
        "app-like phases alternating lock arrays, shared reductions, and "
        "pairwise pipelines, separated by barriers"
    ),
    knobs=(
        ("phases", 6), ("compute_cycles", 150), ("num_locks", 4),
        ("critical_cycles", 30), ("num_threads", None),
    ),
    example=(
        "python -m repro run scenarios --scenarios mixed_phases "
        "--cores 16,32 --progress"
    ),
)
def build_mixed_phases(
    machine: Manycore,
    phases: int = 6,
    compute_cycles: int = 150,
    num_locks: int = 4,
    critical_cycles: int = 30,
    num_threads: Optional[int] = None,
) -> WorkloadHandle:
    """Cycles through lock, reduction, and pipeline phases under one program.

    Phase ``3k`` hammers a small lock array, phase ``3k+1`` runs a shared
    reduction, phase ``3k+2`` moves payloads through pairwise SPSC channels;
    every phase ends in a barrier, so the synchronization styles hit the
    broadcast plane in distinct, repeating bursts — the closest scenario to
    the mixed traffic of a real application.
    """
    _require(phases >= 1, "mixed_phases needs phases >= 1")
    _require(num_locks >= 1, "mixed_phases needs num_locks >= 1")
    if num_threads is None:
        num_threads = machine.config.num_cores
    program = machine.new_program("mixed_phases")
    sync = SyncFactory(program)
    barrier_sid = sync.create_barrier(num_threads).sync_id
    lock_sids = [lock.sync_id for lock in sync.create_locks(num_locks)]
    reduction_sid = sync.create_cell().sync_id
    # One SPSC channel per full (producer, consumer) pair; with an odd thread
    # count the last thread sits pipeline phases out instead of producing
    # into a channel nobody drains.
    channel_sids = [sync.create_channel().sync_id for _ in range(num_threads // 2)]

    def body(frame, value, env):
        # Per phase: compute, run the phase's synchronization style, barrier.
        L, label = frame.locals, frame.label
        me = env.ctx.thread_id
        phase = L["phase"] if label != START else 0
        if label == "computed":
            style = phase % 3
            if style == 0:
                L["acquisition"] = 0
                return lock_acquire(lock_sids[(me + phase) % num_locks], "acquired")
            if style == 1:
                return cell_fetch_add(reduction_sid, me + 1, "synced")
            if me // 2 < len(channel_sids):
                sid = channel_sids[me // 2]
                if me % 2 == 0:
                    return channel_produce(sid, (me, phase, me + phase, 1), "synced")
                return channel_consume(sid, "synced")
            return barrier_wait(barrier_sid, "joined")
        if label == "acquired":
            return Op(Compute(critical_cycles), "critical")
        if label == "critical":
            lock = lock_sids[(me + phase + L["acquisition"]) % num_locks]
            return lock_release(lock, "released")
        if label == "released" and L["acquisition"] == 0:
            L["acquisition"] = 1
            return lock_acquire(lock_sids[(me + phase + 1) % num_locks], "acquired")
        if label in ("released", "synced"):
            return barrier_wait(barrier_sid, "joined")
        if label == START:
            L["phase"] = 0
        else:  # label == "joined"
            phase = L["phase"] = phase + 1
        if phase == phases:
            return Ret(phases)
        return Op(Compute(env.ctx.rng.jitter(compute_cycles, fraction=0.1)), "computed")

    machine.register_frame_routine("mixed_phases.body", body)
    for _ in range(num_threads):
        program.add_thread(FrameBody("mixed_phases.body"))
    return WorkloadHandle(
        name="mixed_phases",
        machine=machine,
        program=program,
        num_threads=num_threads,
        metadata={
            "iterations": phases,
            "num_locks": num_locks,
            # Completed operations = phases finished over all threads.
            "operations": phases * num_threads,
        },
    )

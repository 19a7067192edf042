"""Frame routines for the synchronization primitives.

Every primitive of :mod:`repro.sync` runs through the routines here: a step
issues the primitive's operations one at a time and keeps its progress in
the frame's ``label`` plus plain-data ``locals``, which is what makes every
thread natively checkpointable.  :data:`SYNC_ROUTINES` is the table every
machine starts from; native snapshots store these routine names, so a name
never changes once it has shipped.

Conventions:

* Every routine takes ``{"sid": <sync_id>}`` (plus call arguments) in its
  locals and resolves the primitive through ``env.sync(sid)`` — frames
  never hold the primitive object itself.
* Methods that exist on several primitive types (``barrier.wait``,
  ``lock.acquire``) are one routine dispatching on the primitive's type,
  so workload code does not need to know which Table 2 variant it got.
* A single-op cell access (load, store, wait) is a direct ``Op`` in the
  primitive's own step, built by the cell (``cell.read_op()``, ...).
  ``Call`` is kept for the multi-step operations: ``sync.cell.cas`` and
  ``sync.cell.fetch_add``, which own the AFB retry loop.
* Tuple-valued operation results (``AtomicOp`` → ``(old, success)``) are
  unpacked inside the step; only plain data ever lands in locals.
* The helpers at the bottom (:func:`barrier_wait`, ...) build the ``Call``
  a workload routine returns to run one of these routines.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.cpu.frames import START, Call, Frame, FrameEnv, Op, Ret
from repro.errors import SimulationError, WorkloadError
from repro.isa.operations import (
    AtomicOp,
    BmBulkLoad,
    BmBulkStore,
    BmRmw,
    BmStore,
    BmWaitUntil,
    Read,
    RmwKind,
    ToneStore,
    ToneWait,
    WaitUntil,
    Write,
)
from repro.isa.predicates import Eq, Lt, Ne
from repro.sync.barriers import (
    CentralizedBarrier,
    ToneBarrier,
    TournamentBarrier,
    WirelessBarrier,
)
from repro.sync.locks import CasSpinLock, McsLock, WirelessLock
from repro.sync.rwlock import WRITER_HELD

# The RMW kinds the routines issue, bound once: on Python 3.11
# ``EnumType.__getattr__`` makes every ``RmwKind.X`` read take the slow
# generic attribute path.  Routines build an ``AtomicOp`` or ``BmRmw`` per
# step, positionally (``addr, kind, operand, expected``), since a keyword
# call to a dataclass constructor costs twice as much.
_CAS = RmwKind.COMPARE_AND_SWAP
_SWAP = RmwKind.SWAP
_FETCH_AND_INC = RmwKind.FETCH_AND_INC
_FETCH_AND_ADD = RmwKind.FETCH_AND_ADD


# ---------------------------------------------------------------- barriers
def _centralized_wait(frame: Frame, value: Any, env: FrameEnv, b: CentralizedBarrier):
    L, label = frame.locals, frame.label
    if label == START:
        L["sense"] = b._toggle_sense(env.ctx.thread_id)
        return Op(Read(b.count_addr), "count")
    if label == "count":
        return Op(AtomicOp(b.count_addr, _CAS, value + 1, value), "cas")
    if label == "cas":
        old, success = value
        if not success:
            return Op(Read(b.count_addr), "count")
        if old == b.num_threads - 1:
            return Op(Write(b.count_addr, 0), "wrote_count")
        return Op(WaitUntil(b.release_addr, Eq(L["sense"])), "done")
    if label == "wrote_count":
        return Op(Write(b.release_addr, L["sense"]), "done")
    return Ret(None)


def _tournament_arrivals(L: Dict[str, Any], b: TournamentBarrier, children, tid: int):
    i = L["i"]
    if i < len(children):
        return Op(WaitUntil(b.arrival_addrs[children[i]], Eq(L["sense"])), "child_arrived")
    if tid != 0:
        return Op(Write(b.arrival_addrs[tid], L["sense"]), "wrote_own")
    L["i"] = 0
    return _tournament_wakeups(L, b, children)


def _tournament_wakeups(L: Dict[str, Any], b: TournamentBarrier, children):
    i = L["i"]
    if i < len(children):
        return Op(Write(b.wakeup_addrs[children[i]], L["sense"]), "wrote_child")
    return Ret(None)


def _tournament_wait(frame: Frame, value: Any, env: FrameEnv, b: TournamentBarrier):
    L, label = frame.locals, frame.label
    tid = env.ctx.thread_id
    children = b._children(tid)
    if label == START:
        L["sense"] = b._toggle_sense(tid)
        L["i"] = 0
        return _tournament_arrivals(L, b, children, tid)
    if label == "child_arrived":
        L["i"] += 1
        return _tournament_arrivals(L, b, children, tid)
    if label == "wrote_own":
        return Op(WaitUntil(b.wakeup_addrs[tid], Eq(L["sense"])), "woken")
    if label == "woken":
        L["i"] = 0
        return _tournament_wakeups(L, b, children)
    if label == "wrote_child":
        L["i"] += 1
        return _tournament_wakeups(L, b, children)
    return Ret(None)


def _wireless_barrier_wait(frame: Frame, value: Any, env: FrameEnv, b: WirelessBarrier):
    L, label = frame.locals, frame.label
    if label == START:
        L["sense"] = b._toggle_sense(env.ctx.thread_id)
        L["retries"] = 0
        return Op(BmRmw(b.count_addr, _FETCH_AND_INC), "rmw")
    if label == "rmw":
        if value.afb:
            L["retries"] += 1
            if L["retries"] >= b.MAX_RETRIES:
                raise SimulationError("wireless barrier fetch&inc exceeded retry bound")
            return Op(BmRmw(b.count_addr, _FETCH_AND_INC), "rmw")
        if value.old_value == b.num_threads - 1:
            return Op(BmStore(b.count_addr, 0), "wrote_count")
        return Op(BmWaitUntil(b.release_addr, Eq(L["sense"])), "done")
    if label == "wrote_count":
        return Op(BmStore(b.release_addr, L["sense"]), "done")
    return Ret(None)


def _tone_barrier_wait(frame: Frame, value: Any, env: FrameEnv, b: ToneBarrier):
    L, label = frame.locals, frame.label
    if label == START:
        L["sense"] = b._toggle_sense(env.ctx.thread_id)
        return Op(ToneStore(b.bm_addr), "stored")
    if label == "stored":
        return Op(ToneWait(b.bm_addr, local_sense=L["sense"]), "done")
    return Ret(None)


_BARRIER_WAIT: Dict[type, Callable] = {
    CentralizedBarrier: _centralized_wait,
    TournamentBarrier: _tournament_wait,
    WirelessBarrier: _wireless_barrier_wait,
    ToneBarrier: _tone_barrier_wait,
}


def _barrier_wait(frame: Frame, value: Any, env: FrameEnv):
    barrier = env.sync(frame.locals["sid"])
    step = _BARRIER_WAIT.get(type(barrier))
    if step is None:
        raise WorkloadError(f"no frame routine for barrier type {type(barrier).__name__}")
    return step(frame, value, env, barrier)


# ------------------------------------------------------------------- locks
def _cas_spin_acquire(frame: Frame, value: Any, env: FrameEnv, lock: CasSpinLock):
    label = frame.label
    if label == "cas":
        old, success = value
        if success:
            return Ret(None)
        return Op(WaitUntil(lock.addr, Eq(0)), "freed")
    # START and "freed" both race with CAS.
    return Op(AtomicOp(lock.addr, _CAS, 1, 0), "cas")


def _cas_spin_release(frame: Frame, value: Any, env: FrameEnv, lock: CasSpinLock):
    if frame.label == START:
        return Op(Write(lock.addr, 0), "done")
    return Ret(None)


def _mcs_acquire(frame: Frame, value: Any, env: FrameEnv, lock: McsLock):
    L, label = frame.locals, frame.label
    tid = env.ctx.thread_id
    if label == START:
        locked_addr, next_addr = lock._qnode(tid)
        L["locked_addr"] = locked_addr
        L["next_addr"] = next_addr
        return Op(Write(next_addr, 0), "wrote_next")
    if label == "wrote_next":
        return Op(Write(L["locked_addr"], 1), "wrote_locked")
    if label == "wrote_locked":
        return Op(AtomicOp(lock.tail_addr, _SWAP, tid + 1), "swapped")
    if label == "swapped":
        predecessor, _ = value
        if predecessor == 0:
            return Ret(None)
        _, pred_next = lock._qnode(predecessor - 1)
        return Op(Write(pred_next, tid + 1), "linked")
    if label == "linked":
        return Op(WaitUntil(L["locked_addr"], Eq(0)), "done")
    return Ret(None)


def _mcs_release(frame: Frame, value: Any, env: FrameEnv, lock: McsLock):
    L, label = frame.locals, frame.label
    tid = env.ctx.thread_id

    def handoff(successor: int):
        succ_locked, _ = lock._qnode(successor - 1)
        return Op(Write(succ_locked, 0), "done")

    if label == START:
        _, next_addr = lock._qnode(tid)
        L["next_addr"] = next_addr
        return Op(AtomicOp(lock.tail_addr, _CAS, 0, tid + 1), "cas")
    if label == "cas":
        _, success = value
        if success:
            return Ret(None)
        return Op(Read(L["next_addr"]), "read_next")
    if label == "read_next":
        if value == 0:
            return Op(WaitUntil(L["next_addr"], Ne(0)), "got_next")
        return handoff(value)
    if label == "got_next":
        return handoff(value)
    return Ret(None)


def _afb_retry(L: Dict[str, Any], operation: BmRmw, max_retries: int, what: str):
    """(Re-)issue one AFB-bounded BM RMW, counting it against the retry bound."""
    if L["retries"] >= max_retries:
        raise SimulationError(f"{what} on BM address {operation.addr} exceeded retry bound")
    L["retries"] += 1
    return Op(operation, "rmw")


def _wireless_acquire(frame: Frame, value: Any, env: FrameEnv, lock: WirelessLock):
    L, label = frame.locals, frame.label
    if label == "rmw" and not value.afb:
        if value.success:
            return Ret(None)
        return Op(BmWaitUntil(lock.bm_addr, Eq(0)), "freed")
    if label == START:
        L["retries"] = 0
    # START, "freed", or an AFB failure: (re-)issue the CAS.
    operation = BmRmw(lock.bm_addr, _CAS, 1, 0)
    return _afb_retry(L, operation, lock.MAX_RETRIES, "wireless lock CAS")


def _wireless_release(frame: Frame, value: Any, env: FrameEnv, lock: WirelessLock):
    if frame.label == START:
        return Op(BmStore(lock.bm_addr, 0), "done")
    return Ret(None)


_LOCK_ACQUIRE: Dict[type, Callable] = {
    CasSpinLock: _cas_spin_acquire,
    McsLock: _mcs_acquire,
    WirelessLock: _wireless_acquire,
}
_LOCK_RELEASE: Dict[type, Callable] = {
    CasSpinLock: _cas_spin_release,
    McsLock: _mcs_release,
    WirelessLock: _wireless_release,
}


def _lock_method(table: Dict[type, Callable], what: str):
    def step(frame: Frame, value: Any, env: FrameEnv):
        lock = env.sync(frame.locals["sid"])
        handler = table.get(type(lock))
        if handler is None:
            raise WorkloadError(f"no frame routine for {what} on {type(lock).__name__}")
        return handler(frame, value, env, lock)

    return step


_lock_acquire = _lock_method(_LOCK_ACQUIRE, "lock.acquire")
_lock_release = _lock_method(_LOCK_RELEASE, "lock.release")


# ------------------------------------------------------------------- cells
def _cell_read(frame: Frame, value: Any, env: FrameEnv):
    # Library routines issue ``cell.read_op()`` directly; this routine stays
    # registered so a checkpoint whose stack holds its frame still restores.
    if frame.label == START:
        return Op(env.sync(frame.locals["sid"]).read_op(), "done")
    return Ret(value)


def _cell_write(frame: Frame, value: Any, env: FrameEnv):
    if frame.label == START:
        L = frame.locals
        return Op(env.sync(L["sid"]).write_op(L["value"]), "done")
    return Ret(None)


def _cell_cas(frame: Frame, value: Any, env: FrameEnv):
    """CAS on a cell; returns ``(success, old_value)``."""
    L, label = frame.locals, frame.label
    cell = env.sync(L["sid"])
    if cell.wireless:
        if label == START:
            L["retries"] = 0
        elif not value.afb:
            return Ret((value.success, value.old_value))
        operation = BmRmw(cell.addr, _CAS, L["new"], L["expected"])
        return _afb_retry(L, operation, cell.MAX_RETRIES, "CAS")
    if label == START:
        return Op(AtomicOp(cell.addr, _CAS, L["new"], L["expected"]), "done")
    old, success = value
    return Ret((success, old))


def _cell_fetch_add(frame: Frame, value: Any, env: FrameEnv):
    """Fetch&add on a cell; returns the old value."""
    L, label = frame.locals, frame.label
    cell = env.sync(L["sid"])
    if cell.wireless:
        if label == START:
            L["retries"] = 0
        elif not value.afb:
            return Ret(value.old_value)
        operation = BmRmw(cell.addr, _FETCH_AND_ADD, L["delta"])
        return _afb_retry(L, operation, cell.MAX_RETRIES, "fetch&add")
    if label == START:
        return Op(AtomicOp(cell.addr, _FETCH_AND_ADD, L["delta"]), "done")
    old, _ = value
    return Ret(old)


# ----------------------------------------------------- readers-writer lock
def _rwlock_acquire_read(frame: Frame, value: Any, env: FrameEnv):
    L, label = frame.locals, frame.label
    cell = env.sync(L["sid"]).cell
    if label == "read":
        if value >= WRITER_HELD:
            # Writer inside: spin until it leaves, then race again.
            return Op(cell.wait_op(Lt(WRITER_HELD)), "reread")
        return cell_cas(cell.sync_id, value, value + 1, "cas")
    if label == "cas" and value[0]:
        return Ret(None)
    # START, the writer gone, or a lost CAS: read the lock word (again).
    return Op(cell.read_op(), "read")


def _rwlock_release_read(frame: Frame, value: Any, env: FrameEnv):
    if frame.label == START:
        return cell_fetch_add(env.sync(frame.locals["sid"]).cell.sync_id, -1, "done")
    return Ret(None)


def _rwlock_acquire_write(frame: Frame, value: Any, env: FrameEnv):
    cell = env.sync(frame.locals["sid"]).cell
    if frame.label == "cas":
        if value[0]:
            return Ret(None)
        # Readers draining or another writer inside: wait for idle.
        return Op(cell.wait_op(Eq(0)), "idle")
    return cell_cas(cell.sync_id, 0, WRITER_HELD, "cas")


def _rwlock_release_write(frame: Frame, value: Any, env: FrameEnv):
    if frame.label == START:
        return Op(env.sync(frame.locals["sid"]).cell.write_op(0), "done")
    return Ret(None)


# ----------------------------------------------------------------- eurekas
def _eureka_post(frame: Frame, value: Any, env: FrameEnv):
    """Signal the condition: toggles the flag for this episode."""
    if frame.label == START:
        eureka = env.sync(frame.locals["sid"])
        sense = eureka._advance_sense(env.ctx.thread_id)
        return Op(eureka.cell.write_op(sense), "done")
    return Ret(None)


def _eureka_wait(frame: Frame, value: Any, env: FrameEnv):
    """Block until someone posts this episode."""
    if frame.label == START:
        eureka = env.sync(frame.locals["sid"])
        sense = eureka._advance_sense(env.ctx.thread_id)
        return Op(eureka.cell.wait_op(Eq(sense)), "done")
    return Ret(None)


# ------------------------------------------------ producer/consumer channels
def _channel_produce(frame: Frame, value: Any, env: FrameEnv):
    """Publish four words; waits until the previous payload was consumed."""
    L, label = frame.locals, frame.label
    channel = env.sync(L["sid"])
    if label == START:
        L["values"] = channel._payload(L["values"])
        wait = BmWaitUntil if channel.wireless else WaitUntil
        return Op(wait(channel.flag_addr, Eq(0)), "empty")
    if label == "empty" and channel.wireless:
        return Op(BmBulkStore(channel.data_addr, L["values"]), "stored")
    if label == "stored":
        return Op(BmStore(channel.flag_addr, 1), "done")
    if label == "done":
        return Ret(None)
    # Cached slot: one store per word, then the flag.
    word = 0 if label == "empty" else L["word"] + 1
    if word < 4:
        L["word"] = word
        return Op(Write(channel.data_addr + word * 8, L["values"][word]), "wrote")
    return Op(Write(channel.flag_addr, 1), "done")


def _channel_consume(frame: Frame, value: Any, env: FrameEnv):
    """Wait for a payload, read it, and mark the slot empty; returns it."""
    L, label = frame.locals, frame.label
    channel = env.sync(L["sid"])
    if label == START:
        wait = BmWaitUntil if channel.wireless else WaitUntil
        return Op(wait(channel.flag_addr, Eq(1)), "full")
    if label == "full" and channel.wireless:
        return Op(BmBulkLoad(channel.data_addr), "loaded")
    if label == "loaded":
        L["values"] = tuple(value)
        return Op(BmStore(channel.flag_addr, 0), "done")
    if label == "done":
        return Ret(L["values"])
    # Cached slot: one load per word, then clear the flag.
    L["values"] = () if label == "full" else L["values"] + (value,)
    word = len(L["values"])
    if word < 4:
        return Op(Read(channel.data_addr + word * 8), "read")
    return Op(Write(channel.flag_addr, 0), "done")


#: Static routine table copied into every machine's ``frame_routines``.
SYNC_ROUTINES: Dict[str, Callable] = {
    "sync.barrier.wait": _barrier_wait,
    "sync.lock.acquire": _lock_acquire,
    "sync.lock.release": _lock_release,
    "sync.cell.read": _cell_read,
    "sync.cell.write": _cell_write,
    "sync.cell.cas": _cell_cas,
    "sync.cell.fetch_add": _cell_fetch_add,
    "sync.rwlock.acquire_read": _rwlock_acquire_read,
    "sync.rwlock.release_read": _rwlock_release_read,
    "sync.rwlock.acquire_write": _rwlock_acquire_write,
    "sync.rwlock.release_write": _rwlock_release_write,
    "sync.eureka.post": _eureka_post,
    "sync.eureka.wait": _eureka_wait,
    "sync.channel.produce": _channel_produce,
    "sync.channel.consume": _channel_consume,
}


def barrier_wait(sid: int, label: str) -> Call:
    """Convenience: push a ``barrier.wait`` frame, resume caller at ``label``."""
    return Call("sync.barrier.wait", {"sid": sid}, label)


def lock_acquire(sid: int, label: str) -> Call:
    return Call("sync.lock.acquire", {"sid": sid}, label)


def lock_release(sid: int, label: str) -> Call:
    return Call("sync.lock.release", {"sid": sid}, label)


def cell_cas(sid: int, expected: int, new: int, label: str) -> Call:
    """Resume at ``label`` with ``(success, old_value)``."""
    return Call("sync.cell.cas", {"sid": sid, "expected": expected, "new": new}, label)


def cell_fetch_add(sid: int, delta: int, label: str) -> Call:
    """Resume at ``label`` with the old value."""
    return Call("sync.cell.fetch_add", {"sid": sid, "delta": delta}, label)


def rwlock_acquire_read(sid: int, label: str) -> Call:
    return Call("sync.rwlock.acquire_read", {"sid": sid}, label)


def rwlock_release_read(sid: int, label: str) -> Call:
    return Call("sync.rwlock.release_read", {"sid": sid}, label)


def rwlock_acquire_write(sid: int, label: str) -> Call:
    return Call("sync.rwlock.acquire_write", {"sid": sid}, label)


def rwlock_release_write(sid: int, label: str) -> Call:
    return Call("sync.rwlock.release_write", {"sid": sid}, label)


def eureka_post(sid: int, label: str) -> Call:
    return Call("sync.eureka.post", {"sid": sid}, label)


def eureka_wait(sid: int, label: str) -> Call:
    return Call("sync.eureka.wait", {"sid": sid}, label)


def channel_produce(sid: int, values: Tuple[int, ...], label: str) -> Call:
    """Publish the four words ``values`` on the channel."""
    return Call("sync.channel.produce", {"sid": sid, "values": values}, label)


def channel_consume(sid: int, label: str) -> Call:
    """Resume at ``label`` with the four-word payload as a tuple."""
    return Call("sync.channel.consume", {"sid": sid}, label)

"""Native machine-state codec: checkpoint restore in O(state), no events re-run.

``capture_machine`` walks a live :class:`~repro.machine.manycore.Manycore`
and produces a JSON-canonical payload describing every piece of runtime
state a resumed simulation needs: thread frame stacks, the event queue,
in-flight wireless transfers, pending BM operations, cache/directory
contents, and all counters.  ``restore_machine`` applies such a payload to
a *freshly built* machine for the same spec (same config, same workload,
``begin()`` already called) and leaves it cycle-exact at the captured
point — resuming costs O(state), independent of how many events the
original run had processed.

Design rules the codec lives by:

* **JSON-canonical payloads only.**  Every value the codec emits survives a
  ``json.dumps``/``loads`` round trip unchanged: dict keys are strings,
  sequences are lists, and int-keyed maps become lists of ``[key, value]``
  pairs.  This is what lets ``_verify_native`` compare an in-memory capture
  against a checkpoint loaded from disk bit for bit.
* **Insertion order is state.**  Dicts are serialized as pair lists in
  insertion order and restored in that order, because several consumers
  (TLB reverse translation, RMW failure notification, cache LRU) iterate
  them.  Sets that are only membership-tested are stored sorted.
* **No opaque callables.**  Every callback that can be live at a
  checkpoint is either a describable record (:class:`BmOpCallback`,
  :class:`ThreadResume`, ...) or a bound method of a singleton subsystem.
  Anything else — a thread parked on a raw lambda predicate, say — raises
  :class:`SnapshotError`, and the capture fails.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional

from repro.core.bm_controller import BmController, BmOpCallback, PendingBmOp, RmwResult
from repro.core.broadcast_memory import BmEntry
from repro.core.fabric import BroadcastFabric, _PendingRmw
from repro.core.fabric import _Waiter as _FabricWaiter
from repro.core.tone_controller import ActiveBEntry, AllocBEntry, ToneController, _ActivationSent
from repro.cpu.frames import Frame
from repro.cpu.thread import SimThread, ThreadResume, ThreadResumeNone, ThreadState
from repro.errors import SnapshotError
from repro.isa.predicates import Predicate, describe_predicate, predicate_from_payload
from repro.mem.directory import DirectoryEntry, LineState
from repro.mem.hierarchy import MemorySystem
from repro.mem.hierarchy import _Waiter as _MemWaiter
from repro.sim.stats import StatsRegistry
from repro.wireless.backoff import BroadcastAwareBackoff, ExponentialBackoff, FixedBackoff
from repro.wireless.channel import DataChannel, WirelessMessage, _Attempt
from repro.wireless.tone import ToneChannel, _ActiveBarrier
from repro.wireless.transceiver import Transceiver, _PendingSend


# --------------------------------------------------------------------- values
def _encode_value(value: Any, allow_refs: bool = True) -> Any:
    """Encode one runtime value (event arg, thread result, frame local).

    ``allow_refs`` permits by-id references to simulation objects (threads,
    channel attempts); frame locals must be plain data and encode with
    ``allow_refs=False``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, RmwResult):
        return {
            "__rmw__": [
                value.old_value,
                bool(value.success),
                bool(value.afb),
                value.completion_cycle,
            ]
        }
    if isinstance(value, Predicate):
        return {"__pred__": value.describe()}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(v, allow_refs) for v in value]}
    if isinstance(value, list):
        return {"__list__": [_encode_value(v, allow_refs) for v in value]}
    if allow_refs and isinstance(value, SimThread):
        return {"__thread__": value.thread_id}
    if allow_refs and isinstance(value, _Attempt):
        return {"__attempt__": value.attempt_id}
    raise SnapshotError(f"value {value!r} cannot be captured in a native snapshot")


def _decode_value(payload: Any, ctx: Optional["_RestoreCtx"]) -> Any:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, dict):
        if "__rmw__" in payload:
            old, success, afb, cycle = payload["__rmw__"]
            return RmwResult(int(old), bool(success), bool(afb), int(cycle))
        if "__pred__" in payload:
            return predicate_from_payload(payload["__pred__"])
        if "__tuple__" in payload:
            return tuple(_decode_value(v, ctx) for v in payload["__tuple__"])
        if "__list__" in payload:
            return [_decode_value(v, ctx) for v in payload["__list__"]]
        if "__thread__" in payload and ctx is not None:
            return ctx.machine.threads[int(payload["__thread__"])]
        if "__attempt__" in payload and ctx is not None:
            return ctx.attempts[int(payload["__attempt__"])]
    raise SnapshotError(f"malformed native value payload: {payload!r}")


# ------------------------------------------------------------------ callbacks
def _describe_callback(cb: Any, machine) -> Dict[str, Any]:
    """Describe a live callback as a plain record, or raise SnapshotError."""
    if isinstance(cb, ThreadResumeNone):
        return {"k": "resume_none", "t": cb.thread.thread_id}
    if isinstance(cb, ThreadResume):
        return {"k": "resume", "t": cb.thread.thread_id}
    if isinstance(cb, BmOpCallback):
        return {
            "k": "bm_op",
            "n": cb.controller.node_id,
            "op": cb.op_id,
            "m": cb.method,
        }
    if isinstance(cb, _ActivationSent):
        return {"k": "activation", "n": cb.controller.node_id, "addr": cb.bm_addr}
    bound_self = getattr(cb, "__self__", None)
    name = getattr(cb, "__name__", "")
    if bound_self is machine:
        if name == "_advance":
            return {"k": "advance"}
        if name == "_start_thread":
            return {"k": "start_thread"}
    fabric = machine.fabric
    if fabric is not None:
        if bound_self is fabric.data_channel:
            if name == "_arbitrate":
                return {"k": "chan_arbitrate"}
            if name == "_complete":
                return {"k": "chan_complete"}
        if fabric.tone_channel is not None and bound_self is fabric.tone_channel:
            if name == "_complete":
                return {"k": "tone_complete"}
    raise SnapshotError(f"callback {cb!r} is not describable for native capture")


def _decode_callback(desc: Dict[str, Any], ctx: "_RestoreCtx") -> Any:
    machine = ctx.machine
    kind = desc.get("k")
    if kind == "resume":
        return machine.threads[int(desc["t"])].resume
    if kind == "resume_none":
        return machine.threads[int(desc["t"])].resume_none
    if kind == "advance":
        return machine._advance
    if kind == "start_thread":
        return machine._start_thread
    if kind == "bm_op":
        controller = machine.fabric.nodes[int(desc["n"])].bm_controller
        return BmOpCallback(controller, int(desc["op"]), desc["m"])
    if kind == "activation":
        controller = machine.fabric.nodes[int(desc["n"])].tone_controller
        return _ActivationSent(controller, int(desc["addr"]))
    if kind == "chan_arbitrate":
        return machine.fabric.data_channel._arbitrate
    if kind == "chan_complete":
        return machine.fabric.data_channel._complete
    if kind == "tone_complete":
        return machine.fabric.tone_channel._complete
    raise SnapshotError(f"unknown callback descriptor {desc!r}")


class _RestoreCtx:
    """By-id registries built up while a machine payload is being applied."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: attempt_id -> restored channel ``_Attempt``
        self.attempts: Dict[int, _Attempt] = {}
        #: (node_id, send_id) -> restored transceiver ``_PendingSend``
        self.pendings: Dict[Any, _PendingSend] = {}


# -------------------------------------------------------------------- threads
def _capture_thread(thread: SimThread) -> Dict[str, Any]:
    frames_payload: Optional[List[Dict[str, Any]]] = None
    if thread.frames is not None:
        frames_payload = []
        for frame in thread.frames:
            locals_payload: Dict[str, Any] = {}
            for var, value in frame.locals.items():
                try:
                    locals_payload[var] = _encode_value(value, allow_refs=False)
                except SnapshotError:
                    raise SnapshotError(
                        f"thread {thread.thread_id} frame "
                        f"{frame.routine}@{frame.label}: local {var!r} holds "
                        f"{value!r}, which is not plain data"
                    ) from None
            frames_payload.append(
                {"routine": frame.routine, "label": frame.label, "locals": locals_payload}
            )
    return {
        "state": thread.state.value,
        "start": thread.start_cycle,
        "finish": thread.finish_cycle,
        "ops": thread.operations_issued,
        "result": _encode_value(thread.result, allow_refs=False),
        "frames": frames_payload,
    }


def _restore_thread(thread: SimThread, payload: Dict[str, Any]) -> None:
    thread.state = ThreadState(payload["state"])
    thread.start_cycle = payload["start"]
    thread.finish_cycle = payload["finish"]
    thread.operations_issued = int(payload["ops"])
    thread.result = _decode_value(payload["result"], None)
    frames_payload = payload["frames"]
    if frames_payload is not None:
        thread.frames = [
            Frame(
                f["routine"],
                f["label"],
                {var: _decode_value(v, None) for var, v in f["locals"].items()},
            )
            for f in frames_payload
        ]
        thread.send = thread._frame_send


# ------------------------------------------------------------------ scheduler
def _capture_scheduler(scheduler) -> Dict[str, Any]:
    return {
        "placements": [
            [
                tid,
                {
                    "core": p.core_id,
                    "pid": p.pid,
                    "tb": sorted(p.tone_barriers),
                    "pre": bool(p.preempted),
                },
            ]
            for tid, p in scheduler._placements.items()
        ],
        "load": [[core, n] for core, n in scheduler._core_load.items()],
        "migrations": scheduler.migrations,
        "preemptions": scheduler.preemptions,
    }


def _restore_scheduler(scheduler, payload: Dict[str, Any]) -> None:
    for tid, entry in payload["placements"]:
        placement = scheduler._placements.get(int(tid))
        if placement is None:
            raise SnapshotError(f"snapshot names unknown thread placement {tid}")
        placement.core_id = int(entry["core"])
        placement.pid = int(entry["pid"])
        placement.tone_barriers = set(int(a) for a in entry["tb"])
        placement.preempted = bool(entry["pre"])
    scheduler._core_load = {int(c): int(n) for c, n in payload["load"]}
    scheduler.migrations = int(payload["migrations"])
    scheduler.preemptions = int(payload["preemptions"])


# ----------------------------------------------------------------------- sync
def sync_fingerprint(obj) -> Dict[str, Any]:
    """JSON-canonical digest of a sync object's mutable state.

    Shared with ``SpecExecution._native_state``, where it makes sync-object
    drift visible to the post-restore verification pass.
    """
    payload: Dict[str, Any] = {"type": type(obj).__name__}
    sense = getattr(obj, "_sense", None)
    if sense is not None:
        payload["sense"] = [[tid, s] for tid, s in sorted(sense.items())]
    qnodes = getattr(obj, "_qnodes", None)
    if qnodes is not None:
        payload["qnodes"] = [
            [tid, [locked, nxt]] for tid, (locked, nxt) in sorted(qnodes.items())
        ]
    return payload


def _restore_sync(obj, payload: Dict[str, Any]) -> None:
    if payload["type"] != type(obj).__name__:
        raise SnapshotError(
            f"sync object type mismatch: snapshot has {payload['type']}, "
            f"machine has {type(obj).__name__}"
        )
    if "sense" in payload:
        obj._sense = {int(tid): int(s) for tid, s in payload["sense"]}
    if "qnodes" in payload:
        obj._qnodes = {
            int(tid): (int(locked), int(nxt)) for tid, (locked, nxt) in payload["qnodes"]
        }


# --------------------------------------------------------------------- memory
def _capture_memory(memory: MemorySystem, machine) -> Dict[str, Any]:
    return {
        "values": [[word, v] for word, v in memory._values.items()],
        "l2": sorted(memory._l2_resident),
        "line_busy": [[line, t] for line, t in memory._line_busy_until.items()],
        "waiters": [
            [
                word,
                [
                    {
                        "core": w.core,
                        "pred": describe_predicate(w.predicate),
                        "cb": _describe_callback(w.callback, machine),
                    }
                    for w in waiters
                ],
            ]
            for word, waiters in memory._waiters.items()
        ],
        "dir": [
            [line, [entry.state.value, entry.owner, sorted(entry.sharers)]]
            for line, entry in memory.directory._entries.items()
        ],
        "l1": [
            {
                "sets": [[index, list(lines)] for index, lines in cache._sets.items()],
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
            }
            for cache in memory._l1
        ],
        "dram": [[c, t] for c, t in memory.dram._controller_free.items()],
    }


def _restore_memory(memory: MemorySystem, payload: Dict[str, Any], ctx: "_RestoreCtx") -> None:
    memory._values = {int(w): int(v) for w, v in payload["values"]}
    memory._l2_resident = set(int(line) for line in payload["l2"])
    memory._line_busy_until = {int(line): int(t) for line, t in payload["line_busy"]}
    memory._waiters = {
        int(word): [
            _MemWaiter(
                core=int(w["core"]),
                predicate=predicate_from_payload(w["pred"]),
                callback=_decode_callback(w["cb"], ctx),
            )
            for w in waiters
        ]
        for word, waiters in payload["waiters"]
    }
    memory.directory._entries = {
        int(line): DirectoryEntry(
            state=LineState(state), owner=owner, sharers=set(int(s) for s in sharers)
        )
        for line, (state, owner, sharers) in payload["dir"]
    }
    for cache, cache_payload in zip(memory._l1, payload["l1"]):
        cache._sets = {
            int(index): OrderedDict((int(line), True) for line in lines)
            for index, lines in cache_payload["sets"]
        }
        cache.hits = int(cache_payload["hits"])
        cache.misses = int(cache_payload["misses"])
        cache.evictions = int(cache_payload["evictions"])
    memory.dram._controller_free = {int(c): int(t) for c, t in payload["dram"]}


# --------------------------------------------------------------------- fabric
def _capture_backoff(backoff) -> Dict[str, Any]:
    if isinstance(backoff, ExponentialBackoff):
        return {
            "kind": "exponential",
            "exponent": backoff.exponent,
            "collisions": backoff.collisions,
            "successes": backoff.successes,
        }
    if isinstance(backoff, BroadcastAwareBackoff):
        return {
            "kind": "broadcast_aware",
            "estimate": backoff.estimate,
            "collisions": backoff.collisions,
            "successes": backoff.successes,
        }
    if isinstance(backoff, FixedBackoff):
        return {
            "kind": "fixed",
            "collisions": backoff.collisions,
            "successes": backoff.successes,
        }
    raise SnapshotError(f"unknown backoff policy {type(backoff).__name__}")


def _restore_backoff(backoff, payload: Dict[str, Any]) -> None:
    kinds = {
        ExponentialBackoff: "exponential",
        BroadcastAwareBackoff: "broadcast_aware",
        FixedBackoff: "fixed",
    }
    expected = kinds.get(type(backoff))
    if expected != payload["kind"]:
        raise SnapshotError(
            f"backoff kind mismatch: snapshot has {payload['kind']!r}, "
            f"machine has {expected!r}"
        )
    if isinstance(backoff, ExponentialBackoff):
        backoff.exponent = int(payload["exponent"])
    elif isinstance(backoff, BroadcastAwareBackoff):
        backoff.estimate = float(payload["estimate"])
    backoff.collisions = int(payload["collisions"])
    backoff.successes = int(payload["successes"])


def _encode_message(message: WirelessMessage) -> List[Any]:
    return [
        message.sender,
        message.bm_addr,
        message.value,
        bool(message.bulk),
        bool(message.tone_bit),
        list(message.bulk_values),
    ]


def _decode_message(payload: List[Any]) -> WirelessMessage:
    sender, bm_addr, value, bulk, tone_bit, bulk_values = payload
    return WirelessMessage(
        sender=int(sender),
        bm_addr=int(bm_addr),
        value=int(value),
        bulk=bool(bulk),
        tone_bit=bool(tone_bit),
        bulk_values=tuple(int(v) for v in bulk_values),
    )


def _capture_pending_send(pending: _PendingSend, machine) -> Dict[str, Any]:
    attempt_id: Optional[int] = None
    if pending.attempt is not None and not pending.done:
        attempt_id = pending.attempt.attempt_id
    return {
        "sid": pending.send_id,
        "msg": _encode_message(pending.message),
        "cb": _describe_callback(pending.on_complete, machine),
        "attempt": attempt_id,
    }


def _capture_attempt(attempt: _Attempt) -> Dict[str, Any]:
    on_complete = attempt.on_complete
    if not isinstance(on_complete, _PendingSend):
        raise SnapshotError(
            f"channel attempt {attempt.attempt_id} completion is not a "
            "transceiver send (native capture requires _PendingSend hooks)"
        )
    transceiver = on_complete.transceiver
    on_collision_self = getattr(attempt.on_collision, "__self__", None)
    if on_collision_self is not transceiver or getattr(
        attempt.on_collision, "__name__", ""
    ) != "_on_collision":
        raise SnapshotError(
            f"channel attempt {attempt.attempt_id} collision hook is not the "
            "sending transceiver's MAC"
        )
    return {
        "id": attempt.attempt_id,
        "n": transceiver.node_id,
        "sid": on_complete.send_id,
        "msg": _encode_message(attempt.message),
        "enq": attempt.enqueued_at,
        "canc": bool(attempt.cancelled),
        "started": bool(attempt.started),
    }


def _live_attempts(channel: DataChannel, sim) -> Dict[int, _Attempt]:
    """Collect every channel attempt a restored run could still touch."""
    attempts: Dict[int, _Attempt] = {}
    for cycle_attempts in channel._attempts_by_cycle.values():
        for attempt in cycle_attempts:
            attempts[attempt.attempt_id] = attempt
    for _time, _priority, _seq, callback, args in sim._queue:
        if getattr(callback, "__self__", None) is channel and getattr(
            callback, "__name__", ""
        ) == "_complete":
            attempts[args[0].attempt_id] = args[0]
    return attempts


def _capture_pending_op(op: PendingBmOp, machine) -> Dict[str, Any]:
    ticket_sid: Optional[int] = None
    if op.ticket is not None:
        ticket_sid = op.ticket.send_id
    return {
        "id": op.op_id,
        "kind": op.kind,
        "addr": op.addr,
        "value": op.value,
        "values": list(op.values),
        "pid": op.pid,
        "old": op.old,
        "new": op.new,
        "settled": bool(op.settled),
        "token": op.token,
        "ticket": ticket_sid,
        "on_done": _describe_callback(op.on_done, machine),
    }


def _capture_transceiver(transceiver: Transceiver, machine) -> Dict[str, Any]:
    # Fold the successes the MAC has heard but not yet applied.  The fold is
    # exact, so it changes no later draw, and the captured backoff holds
    # them; a restore then starts every transceiver level with the channel.
    transceiver._observe()
    return {
        "queue": [_capture_pending_send(p, machine) for p in transceiver._queue],
        "in_flight": (
            None
            if transceiver._in_flight is None
            else _capture_pending_send(transceiver._in_flight, machine)
        ),
        "next_send_id": transceiver._next_send_id,
        "sent": transceiver.sent_messages,
        "collisions": transceiver.collisions_seen,
        "backoff": _capture_backoff(transceiver.backoff),
    }


def _capture_bm_controller(controller: BmController, machine) -> Dict[str, Any]:
    return {
        "wcb": bool(controller.wcb),
        "afb": bool(controller.afb),
        "stores": controller.stores_issued,
        "rmws": controller.rmws_issued,
        "failures": controller.rmw_failures,
        "next_op_id": controller._next_op_id,
        "ops": [_capture_pending_op(op, machine) for op in controller._pending_ops.values()],
    }


def _capture_tone_controller(controller: ToneController) -> Dict[str, Any]:
    pending_inits: List[int] = []
    for bm_addr, hook in controller._pending_inits.items():
        if hook is not None:
            raise SnapshotError(
                f"tone controller {controller.node_id} has an opaque "
                f"activation hook for barrier {bm_addr}"
            )
        pending_inits.append(bm_addr)
    return {
        "alloc_b": [[addr, bool(e.armed)] for addr, e in controller.alloc_b.items()],
        "active_b": [[addr, bool(e.arrived)] for addr, e in controller.active_b.items()],
        "early": sorted(controller._arrived_early),
        "pending_inits": pending_inits,
        "initiated": controller.barriers_initiated,
        "joined": controller.barriers_joined,
    }


def _restore_tone_controller(controller: ToneController, payload: Dict[str, Any]) -> None:
    controller.alloc_b = {
        int(addr): AllocBEntry(bm_addr=int(addr), armed=bool(armed))
        for addr, armed in payload["alloc_b"]
    }
    controller.active_b = {
        int(addr): ActiveBEntry(bm_addr=int(addr), arrived=bool(arrived))
        for addr, arrived in payload["active_b"]
    }
    controller._arrived_early = set(int(a) for a in payload["early"])
    controller._pending_inits = {int(a): None for a in payload["pending_inits"]}
    controller.barriers_initiated = int(payload["initiated"])
    controller.barriers_joined = int(payload["joined"])


def _capture_tone_channel(channel: ToneChannel) -> Dict[str, Any]:
    return {
        "active": [
            [
                addr,
                {
                    "at": channel._active[addr].activated_at,
                    "emitting": sorted(channel._active[addr].emitting),
                    "gen": channel._active[addr].generation,
                },
            ]
            for addr in channel._active_order
        ],
        "completed": channel.completed_barriers,
    }


def _restore_tone_channel(channel: ToneChannel, payload: Dict[str, Any]) -> None:
    channel._active = {}
    channel._active_order = []
    for addr, entry in payload["active"]:
        addr = int(addr)
        channel._active[addr] = _ActiveBarrier(
            bm_addr=addr,
            activated_at=int(entry["at"]),
            emitting=set(int(n) for n in entry["emitting"]),
            generation=int(entry["gen"]),
        )
        channel._active_order.append(addr)
    channel.completed_barriers = int(payload["completed"])


def _capture_fabric(fabric: BroadcastFabric, machine) -> Dict[str, Any]:
    channel = fabric.data_channel
    attempts = _live_attempts(channel, fabric.sim)
    return {
        "bm": [
            [
                addr,
                [entry.value, entry.pid, bool(entry.allocated), bool(entry.tone_capable)],
            ]
            for addr, entry in fabric.memory._entries.items()
        ],
        "allocator": {
            "owner": [[addr, pid] for addr, pid in fabric.allocator._owner.items()],
            "free_spill": fabric.allocator._free_spill_addr,
            "per_pid": [
                [pid, sorted(addrs)] for pid, addrs in sorted(fabric.allocator._per_pid.items())
            ],
            "spilled": fabric.allocator.spilled_allocations,
        },
        "tlb": {
            "mappings": [
                [[pid, vpage], [m.physical_page, bool(m.writable)]]
                for (pid, vpage), m in fabric.tlb._mappings.items()
            ],
            "hits": fabric.tlb.hits,
            "misses": fabric.tlb.misses,
        },
        "waiters": [
            [
                addr,
                [
                    {
                        "pred": describe_predicate(w.predicate),
                        "cb": _describe_callback(w.callback, machine),
                    }
                    for w in waiters
                ],
            ]
            for addr, waiters in fabric._waiters.items()
        ],
        "pending_rmw": [
            [
                token,
                {
                    "node": p.node,
                    "addr": p.addr,
                    "failed": bool(p.failed),
                    "on_fail": (
                        None if p.on_fail is None else _describe_callback(p.on_fail, machine)
                    ),
                },
            ]
            for token, p in fabric._pending_rmw.items()
        ],
        "pending_by_addr": [
            [addr, list(tokens)] for addr, tokens in fabric._pending_by_addr.items()
        ],
        "next_token": fabric._next_token,
        "total_writes": fabric.total_writes,
        "channel": {
            "busy_until": channel._busy_until,
            "next_attempt_id": channel._next_attempt_id,
            "attempts": [
                _capture_attempt(attempts[aid]) for aid in sorted(attempts)
            ],
            "by_cycle": [
                [cycle, [a.attempt_id for a in cycle_attempts]]
                for cycle, cycle_attempts in channel._attempts_by_cycle.items()
            ],
            "messages": channel.total_messages,
            "collisions": channel.total_collisions,
        },
        "tone": (
            None if fabric.tone_channel is None else _capture_tone_channel(fabric.tone_channel)
        ),
        "nodes": [
            {
                "transceiver": _capture_transceiver(node.transceiver, machine),
                "bm_controller": _capture_bm_controller(node.bm_controller, machine),
                "tone_controller": _capture_tone_controller(node.tone_controller),
            }
            for node in fabric.nodes
        ],
    }


def _restore_pending_send(
    payload: Dict[str, Any], transceiver: Transceiver, ctx: "_RestoreCtx"
) -> _PendingSend:
    pending = _PendingSend(
        transceiver,
        send_id=int(payload["sid"]),
        message=_decode_message(payload["msg"]),
        on_complete=_decode_callback(payload["cb"], ctx),
    )
    ctx.pendings[(transceiver.node_id, pending.send_id)] = pending
    return pending


def _restore_fabric(fabric: BroadcastFabric, payload: Dict[str, Any], ctx: "_RestoreCtx") -> None:
    machine = ctx.machine
    fabric.memory._entries = {
        int(addr): BmEntry(
            value=int(value),
            pid=None if pid is None else int(pid),
            allocated=bool(allocated),
            tone_capable=bool(tone_capable),
        )
        for addr, (value, pid, allocated, tone_capable) in payload["bm"]
    }
    allocator_payload = payload["allocator"]
    fabric.allocator._owner = {
        int(addr): int(pid) for addr, pid in allocator_payload["owner"]
    }
    fabric.allocator._free_spill_addr = int(allocator_payload["free_spill"])
    fabric.allocator._per_pid = {
        int(pid): set(int(a) for a in addrs) for pid, addrs in allocator_payload["per_pid"]
    }
    fabric.allocator.spilled_allocations = int(allocator_payload["spilled"])
    tlb_payload = payload["tlb"]
    fabric.tlb._mappings = {}
    for (pid, vpage), (ppage, writable) in tlb_payload["mappings"]:
        fabric.tlb.map_page(int(pid), int(vpage), int(ppage), writable=bool(writable))
    fabric.tlb.hits = int(tlb_payload["hits"])
    fabric.tlb.misses = int(tlb_payload["misses"])
    fabric._next_token = int(payload["next_token"])
    fabric.total_writes = int(payload["total_writes"])

    # Per-node transceivers first: their pending sends are the targets that
    # channel attempts, BM-op tickets, and event callbacks re-link to.
    for node, node_payload in zip(fabric.nodes, payload["nodes"]):
        tx_payload = node_payload["transceiver"]
        transceiver = node.transceiver
        transceiver._queue = deque(
            _restore_pending_send(p, transceiver, ctx) for p in tx_payload["queue"]
        )
        if tx_payload["in_flight"] is None:
            transceiver._in_flight = None
        else:
            transceiver._in_flight = _restore_pending_send(
                tx_payload["in_flight"], transceiver, ctx
            )
        transceiver._next_send_id = int(tx_payload["next_send_id"])
        transceiver.sent_messages = int(tx_payload["sent"])
        transceiver.collisions_seen = int(tx_payload["collisions"])
        _restore_backoff(transceiver.backoff, tx_payload["backoff"])
        # Capture folded every observed success into the backoff.
        transceiver._seen = fabric.data_channel.completed

    # Channel attempts next, re-linked to their pending sends.
    channel = fabric.data_channel
    channel_payload = payload["channel"]
    channel._busy_until = int(channel_payload["busy_until"])
    channel._next_attempt_id = int(channel_payload["next_attempt_id"])
    channel.total_messages = int(channel_payload["messages"])
    channel.total_collisions = int(channel_payload["collisions"])
    for attempt_payload in channel_payload["attempts"]:
        node_id = int(attempt_payload["n"])
        send_id = int(attempt_payload["sid"])
        pending = ctx.pendings.get((node_id, send_id))
        transceiver = fabric.nodes[node_id].transceiver
        message = _decode_message(attempt_payload["msg"])
        if pending is None and attempt_payload["canc"]:
            # The pending send was cancelled and dropped; the attempt only
            # survives until its arbitration cycle filters it out, so its
            # completion hook can never fire.  A detached record keeps the
            # (node, send id) link, so the restored machine captures again.
            pending = _PendingSend(transceiver, send_id, message, on_complete=None)
            pending.done = True
        elif pending is None:
            raise SnapshotError(
                f"channel attempt {attempt_payload['id']} references unknown "
                f"pending send ({node_id}, {send_id})"
            )
        attempt = _Attempt(
            attempt_id=int(attempt_payload["id"]),
            message=message,
            on_complete=pending,
            on_collision=transceiver._on_collision,
            enqueued_at=int(attempt_payload["enq"]),
        )
        attempt.cancelled = bool(attempt_payload["canc"])
        attempt.started = bool(attempt_payload["started"])
        ctx.attempts[attempt.attempt_id] = attempt
    channel._attempts_by_cycle = {
        int(cycle): [ctx.attempts[int(aid)] for aid in attempt_ids]
        for cycle, attempt_ids in channel_payload["by_cycle"]
    }
    for node, node_payload in zip(fabric.nodes, payload["nodes"]):
        tx_payload = node_payload["transceiver"]
        sends = list(tx_payload["queue"])
        if tx_payload["in_flight"] is not None:
            sends.append(tx_payload["in_flight"])
        for send_payload in sends:
            if send_payload["attempt"] is not None:
                pending = ctx.pendings[(node.node_id, int(send_payload["sid"]))]
                pending.attempt = ctx.attempts[int(send_payload["attempt"])]

    # BM controllers: pending ops re-link to transceiver sends via tickets.
    for node, node_payload in zip(fabric.nodes, payload["nodes"]):
        bm_payload = node_payload["bm_controller"]
        controller = node.bm_controller
        controller.wcb = bool(bm_payload["wcb"])
        controller.afb = bool(bm_payload["afb"])
        controller.stores_issued = int(bm_payload["stores"])
        controller.rmws_issued = int(bm_payload["rmws"])
        controller.rmw_failures = int(bm_payload["failures"])
        controller._next_op_id = int(bm_payload["next_op_id"])
        controller._pending_ops = {}
        for op_payload in bm_payload["ops"]:
            op = PendingBmOp(
                op_id=int(op_payload["id"]),
                kind=op_payload["kind"],
                addr=int(op_payload["addr"]),
                on_done=_decode_callback(op_payload["on_done"], ctx),
                pid=None if op_payload["pid"] is None else int(op_payload["pid"]),
                value=int(op_payload["value"]),
                values=tuple(int(v) for v in op_payload["values"]),
                old=int(op_payload["old"]),
                new=int(op_payload["new"]),
            )
            op.settled = bool(op_payload["settled"])
            op.token = None if op_payload["token"] is None else int(op_payload["token"])
            if op_payload["ticket"] is not None:
                send_id = int(op_payload["ticket"])
                pending = ctx.pendings.get((node.node_id, send_id))
                if pending is None:
                    # The send already completed or was cancelled, so the
                    # ticket can no longer cancel anything; a detached, done
                    # record keeps its send id for the next capture.
                    pending = _PendingSend(node.transceiver, send_id, None, on_complete=None)
                    pending.done = True
                op.ticket = pending
            controller._pending_ops[op.op_id] = op
        _restore_tone_controller(node.tone_controller, node_payload["tone_controller"])

    fabric._waiters = {
        int(addr): [
            _FabricWaiter(
                predicate=predicate_from_payload(w["pred"]),
                callback=_decode_callback(w["cb"], ctx),
            )
            for w in waiters
        ]
        for addr, waiters in payload["waiters"]
    }
    fabric._pending_rmw = {}
    for token, rmw_payload in payload["pending_rmw"]:
        pending_rmw = _PendingRmw(
            node=int(rmw_payload["node"]),
            addr=int(rmw_payload["addr"]),
            on_fail=(
                None
                if rmw_payload["on_fail"] is None
                else _decode_callback(rmw_payload["on_fail"], ctx)
            ),
        )
        pending_rmw.failed = bool(rmw_payload["failed"])
        fabric._pending_rmw[int(token)] = pending_rmw
    fabric._pending_by_addr = {
        int(addr): {int(token): None for token in tokens}
        for addr, tokens in payload["pending_by_addr"]
    }
    if payload["tone"] is not None:
        if fabric.tone_channel is None:
            raise SnapshotError("snapshot carries tone-channel state but machine has none")
        _restore_tone_channel(fabric.tone_channel, payload["tone"])
    _ = machine  # machine is reachable through ctx; kept for symmetry


# ---------------------------------------------------------------------- stats
def _restore_stats(stats: StatsRegistry, payload: Dict[str, Any]) -> None:
    """Apply a ``StatsRegistry.to_dict`` payload to live flyweight handles.

    Subsystems hold direct references to counter/histogram objects, so the
    restore must mutate the existing instances in place: zero everything,
    then apply the captured values.
    """
    for counter in stats.counters.values():
        counter.value = 0
    for histogram in stats.histograms.values():
        histogram.samples = []
        histogram._sorted = None
    for tracker in stats.utilizations.values():
        tracker.busy_cycles = 0
        tracker.busy_intervals = 0
    for name, value in payload.get("counters", {}).items():
        stats.counter(name).value = value
    for name, samples in payload.get("histograms", {}).items():
        histogram = stats.histogram(name)
        histogram.samples = list(samples)
        histogram._sorted = None
    for name, entry in payload.get("utilizations", {}).items():
        tracker = stats.utilization(name)
        tracker.busy_cycles = entry["busy_cycles"]
        tracker.busy_intervals = entry["busy_intervals"]


# --------------------------------------------------------------------- events
def _capture_events(machine) -> List[Dict[str, Any]]:
    return [
        {
            "t": time,
            "p": priority,
            "s": seq,
            "cb": _describe_callback(callback, machine),
            "args": [_encode_value(arg) for arg in args],
        }
        for time, priority, seq, callback, args in sorted(
            machine.sim._queue, key=lambda e: e[:3]
        )
    ]


def _restore_events(machine, engine_payload: Dict[str, Any], events: List[Dict[str, Any]], ctx: "_RestoreCtx") -> None:
    sim = machine.sim
    sim.now = int(engine_payload["now"])
    sim._seq = int(engine_payload["seq"])
    sim.events_processed = int(engine_payload["events_processed"])
    sim._stop = False
    entries = [
        (
            int(event_payload["t"]),
            int(event_payload["p"]),
            int(event_payload["s"]),
            _decode_callback(event_payload["cb"], ctx),
            tuple(_decode_value(arg, ctx) for arg in event_payload["args"]),
        )
        for event_payload in events
    ]
    queue = sim._queue
    queue[:] = entries
    heapq.heapify(queue)


# ----------------------------------------------------------------- public API
def capture_machine(machine) -> Dict[str, Any]:
    """Serialize the complete runtime state of a live machine.

    Raises :class:`SnapshotError` if any live state is not natively
    capturable (opaque callbacks or predicates, non-plain frame locals).
    """
    sim = machine.sim
    payload: Dict[str, Any] = {
        "machine": {
            "finished": machine._finished,
            "soft_bm_next": machine._soft_bm_next,
            "events_start": machine._events_start,
        },
        "programs": [program._next_shared for program in machine.programs],
        "threads": [_capture_thread(thread) for thread in machine.threads],
        "scheduler": _capture_scheduler(machine.scheduler),
        "cores": [
            {
                "busy": core.busy_cycles,
                "mem": core.memory_stall_cycles,
                "sync": core.sync_stall_cycles,
                "instr": core.instructions_retired,
                "thread": core.current_thread,
            }
            for core in machine.cores
        ],
        "sync": [sync_fingerprint(obj) for obj in machine.sync_objects],
        "memory": _capture_memory(machine.memory, machine),
        "mesh": {
            "inject": [[n, t] for n, t in machine.mesh._injection_free.items()],
            "eject": [[n, t] for n, t in machine.mesh._ejection_free.items()],
        },
        "fabric": (
            None if machine.fabric is None else _capture_fabric(machine.fabric, machine)
        ),
        "engine": {
            "now": sim.now,
            "seq": sim._seq,
            "events_processed": sim.events_processed,
        },
        "events": _capture_events(machine),
        "stats": machine.stats.to_dict(),
        "rng": machine.rng.tree_getstate(),
    }
    return payload


def restore_machine(machine, payload: Dict[str, Any]) -> None:
    """Apply a ``capture_machine`` payload to a freshly built machine.

    The machine must have been constructed for the same spec (config,
    workload, params) and have had ``begin()`` called; restore then
    overwrites every piece of runtime state, leaving it indistinguishable
    from the machine the capture was taken on.
    """
    ctx = _RestoreCtx(machine)
    machine_payload = payload["machine"]
    machine._finished = int(machine_payload["finished"])
    machine._soft_bm_next = int(machine_payload["soft_bm_next"])
    machine._events_start = int(machine_payload["events_start"])
    if len(payload["programs"]) != len(machine.programs):
        raise SnapshotError("snapshot program count does not match the machine")
    for program, next_shared in zip(machine.programs, payload["programs"]):
        program._next_shared = int(next_shared)
    if len(payload["threads"]) != len(machine.threads):
        raise SnapshotError("snapshot thread count does not match the machine")
    for thread, thread_payload in zip(machine.threads, payload["threads"]):
        _restore_thread(thread, thread_payload)
    _restore_scheduler(machine.scheduler, payload["scheduler"])
    for core, core_payload in zip(machine.cores, payload["cores"]):
        core.busy_cycles = int(core_payload["busy"])
        core.memory_stall_cycles = int(core_payload["mem"])
        core.sync_stall_cycles = int(core_payload["sync"])
        core.instructions_retired = int(core_payload["instr"])
        core.current_thread = core_payload["thread"]
    if len(payload["sync"]) != len(machine.sync_objects):
        raise SnapshotError("snapshot sync-object count does not match the machine")
    for obj, sync_payload in zip(machine.sync_objects, payload["sync"]):
        _restore_sync(obj, sync_payload)
    _restore_memory(machine.memory, payload["memory"], ctx)
    machine.mesh._injection_free = {int(n): int(t) for n, t in payload["mesh"]["inject"]}
    machine.mesh._ejection_free = {int(n): int(t) for n, t in payload["mesh"]["eject"]}
    if payload["fabric"] is not None:
        if machine.fabric is None:
            raise SnapshotError("snapshot carries fabric state but machine has none")
        _restore_fabric(machine.fabric, payload["fabric"], ctx)
    _restore_stats(machine.stats, payload["stats"])
    machine.rng.tree_setstate(payload["rng"])
    # The engine and its queue go last: every callback and argument they
    # reference (threads, pending sends, channel attempts) now exists.
    _restore_events(machine, payload["engine"], payload["events"], ctx)

"""Resumable thread frames: thread bodies as explicit, serializable stacks.

A thread is an explicit stack of :class:`Frame` records, each naming a
*routine* (a pure step function registered on the machine), a *label*
(which suspension point inside the routine to resume at), and a dict of
plain-data *locals*.  Because all of a thread's progress is data, a
checkpoint captures it exactly and a restore rebuilds it without re-running
a single event.

A routine is a function ``step(frame, value, env) -> Op | Call | Ret``:

* ``Op(operation, label)`` — suspend: hand ``operation`` to the machine and,
  when its result comes back, re-enter this routine at ``label`` with the
  result as ``value``.
* ``Call(routine, locals, label)`` — push a callee frame; when it returns,
  re-enter this routine at ``label`` with the callee's return value.
* ``Ret(value)`` — pop this frame, returning ``value`` to the caller (or
  finishing the thread if this was the root frame).

The trampoline (:meth:`repro.cpu.thread.SimThread.send`) drives the stack:
it returns the next operation, or raises ``StopIteration(result)`` when the
root frame returns.  A step that returns anything else, or a frame naming
an unregistered routine, is a :class:`~repro.errors.WorkloadError` naming
the thread, routine and label.

The serializability contract (enforced by lint rule SNAP002 and checked at
capture time): everything stored in ``Frame.locals`` must be plain data —
ints, strings, bools, None, or :class:`~repro.isa.predicates.Predicate`
records, and tuples/lists of those.  Operation results that are tuples
(``AtomicOp``, ``cas``) exist only *inside* a trampoline step; routines
must unpack them before suspending.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import SnapshotError

#: Label every frame starts at.
START = "start"


class Op:
    """Suspend the routine: issue ``operation``, resume at ``label``."""

    __slots__ = ("operation", "label")

    def __init__(self, operation: Any, label: str) -> None:
        self.operation = operation
        self.label = label


class Call:
    """Push a callee frame; resume at ``label`` with its return value."""

    __slots__ = ("routine", "locals", "label")

    def __init__(self, routine: str, locals: Optional[Dict[str, Any]], label: str) -> None:
        self.routine = routine
        self.locals = locals
        self.label = label


class Ret:
    """Pop this frame, handing ``value`` back to the caller."""

    __slots__ = ("value",)

    def __init__(self, value: Any = None) -> None:
        self.value = value


class Frame:
    """One resumable activation record: routine name, label, plain locals."""

    __slots__ = ("routine", "label", "locals")

    def __init__(
        self,
        routine: str,
        label: str = START,
        locals: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.routine = routine
        self.label = label
        self.locals = {} if locals is None else locals

    def describe(self) -> Dict[str, Any]:
        """Plain-data form; locals are validated by the snapshot codec."""
        return {"routine": self.routine, "label": self.label, "locals": dict(self.locals)}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Frame":
        try:
            return cls(payload["routine"], payload["label"], dict(payload["locals"]))
        except (KeyError, TypeError) as error:
            raise SnapshotError(f"malformed frame payload {payload!r}: {error}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.routine}@{self.label}, {self.locals})"


class FrameBody:
    """A thread body: the root routine plus its initial locals.

    Passed to ``Program.add_thread``.  The ``locals`` template is copied per
    thread, so one ``FrameBody`` serves every thread of a workload
    (per-thread variation comes from ``env.ctx``).
    """

    __slots__ = ("routine", "locals")

    def __init__(self, routine: str, locals: Optional[Dict[str, Any]] = None) -> None:
        self.routine = routine
        self.locals = {} if locals is None else locals

    def spawn_stack(self) -> List[Frame]:
        return [Frame(self.routine, START, dict(self.locals))]


class FrameEnv:
    """Ambient context handed to every routine step.

    Routines reach build-time structure through here — the thread's
    :class:`~repro.cpu.thread.ThreadContext` (identity + rng) and the
    machine's sync-object registry — instead of capturing it in locals,
    which keeps frames plain data.
    """

    __slots__ = ("machine", "thread")

    def __init__(self, machine: Any, thread: Any) -> None:
        self.machine = machine
        self.thread = thread

    @property
    def ctx(self) -> Any:
        return self.thread.context

    def sync(self, sync_id: int) -> Any:
        """Resolve a registered synchronization object by its stable id."""
        return self.machine.sync_objects[sync_id]

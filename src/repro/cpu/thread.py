"""Simulated software threads.

A thread's body is a :class:`~repro.cpu.frames.FrameBody`: the thread runs
as an explicit stack of resumable frames, driven by a trampoline that hands
each operation from :mod:`repro.isa.operations` to the machine and resumes
the stack with the operation's result.  The machine drives every thread
through :meth:`SimThread.send`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.cpu.frames import START, Call, Frame, FrameBody, FrameEnv, Op, Ret
from repro.errors import WorkloadError
from repro.sim.rng import DeterministicRng


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


# Bound once: on Python 3.11 ``EnumType`` defines ``__getattr__``, which
# sends every ``ThreadState.X`` read down the slow generic attribute path.
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
_FINISHED = ThreadState.FINISHED


@dataclass
class ThreadContext:
    """Read-only view of a thread for its frame routines.

    Routines reach it as ``env.ctx``; it tells them who they are and gives
    them a private deterministic random stream for think-time jitter.
    """

    thread_id: int
    core_id: int
    num_threads: int
    pid: int
    rng: DeterministicRng


class SimThread:
    """One simulated thread bound to a core."""

    #: Always None: threads run only on frames.  Kept, with :meth:`start` and
    #: :meth:`_frame_send`, because the benchmark's layer tracer
    #: (``perfbench/layers.py``) patches those two methods by name and reads
    #: this attribute.
    generator = None

    STATE = (
        "frames", "state", "start_cycle", "finish_cycle", "operations_issued",
        "result", "send",
    )
    REBUILT = ("thread_id", "core_id", "pid", "body", "context", "frame_env", "_advance")

    def __init__(
        self,
        thread_id: int,
        core_id: int,
        pid: int,
        body: FrameBody,
        context: ThreadContext,
    ) -> None:
        self.thread_id = thread_id
        self.core_id = core_id
        self.pid = pid
        self.body = body
        self.context = context
        self.frames: Optional[List[Frame]] = None
        self.frame_env: Optional[FrameEnv] = None
        self.state = _READY
        self.start_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        self.operations_issued = 0
        self.result: Any = None
        #: The machine's ``_advance``, bound once when the thread is
        #: registered, so a wrapper installed on ``Manycore._advance`` before
        #: the build (``perfbench/layers.py``) sees every resume.
        self._advance: Optional[Callable[["SimThread", Any], None]] = None
        #: The trampoline, bound in :meth:`start` (and by native restore); the
        #: machine's dispatch loop calls ``thread.send(value)``.
        self.send: Optional[Callable[[Any], Any]] = None

    def bind_resume(self, advance: Callable[["SimThread", Any], None]) -> None:
        """Bind the machine's step function (called once by the machine)."""
        self._advance = advance

    def resume(self, value: Any) -> None:
        """Completion hook: resume the thread with the delivered value."""
        self._advance(self, value)

    def resume_none(self, *_ignored: Any) -> None:
        """Completion hook that resumes the thread with ``None``, whatever the
        caller delivers (completion cycles from BM stores, for example)."""
        self._advance(self, None)

    def start(self) -> None:
        """Spawn the body's root frame (called by the machine when scheduling)."""
        self.frames = self.body.spawn_stack()
        self.send = self._frame_send
        self.state = _RUNNING

    def _frame_send(self, value: Any) -> Any:
        """Trampoline: drive the frame stack until it suspends or finishes.

        Returns the next operation, or raises ``StopIteration(result)`` when
        the root frame returns.
        """
        stack = self.frames
        env = self.frame_env
        routines = env.machine.frame_routines
        while True:
            frame = stack[-1]
            try:
                step = routines[frame.routine]
            except KeyError:
                raise self._malformed(frame, "names an unregistered routine") from None
            action = step(frame, value, env)
            cls = action.__class__
            if cls is Op:
                frame.label = action.label
                return action.operation
            if cls is Call:
                frame.label = action.label
                stack.append(Frame(action.routine, START, action.locals))
                value = None
                continue
            if cls is not Ret:
                raise self._malformed(
                    frame, f"returned {action!r}; a step returns Op(...), Call(...) or Ret(...)"
                )
            stack.pop()
            if not stack:
                raise StopIteration(action.value)
            value = action.value

    def _malformed(self, frame: Frame, problem: str) -> WorkloadError:
        return WorkloadError(
            f"thread {self.thread_id}: frame routine {frame.routine!r} at label "
            f"{frame.label!r} {problem}"
        )

    @property
    def finished(self) -> bool:
        return self.state is _FINISHED

    @property
    def elapsed_cycles(self) -> Optional[int]:
        if self.start_cycle is None or self.finish_cycle is None:
            return None
        return self.finish_cycle - self.start_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimThread(tid={self.thread_id}, core={self.core_id}, "
            f"pid={self.pid}, state={self.state.value})"
        )

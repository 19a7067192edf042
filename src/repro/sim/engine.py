"""Cycle-granular discrete-event simulator.

Every timing model in the library (caches, mesh network, wireless channels,
cores) shares a single :class:`Simulator` instance and advances time by
scheduling callbacks.  Time is measured in integer processor cycles at the
paper's 1 GHz clock, so one cycle is also one nanosecond.

The event queue is engineered for the hot path: heap entries are plain
``(time, priority, seq, callback, args)`` tuples (compared in C — ``seq`` is
unique, so a comparison never reaches the callback), and ``run``/``step``/
``drain`` all share one loop.  The engine has no event cancellation: a
component that abandons work drops it from its own records (a cancelled
wireless attempt leaves its slot's list, and the slot's arbitration event
still fires), so ``schedule`` returns nothing and every queued entry is live.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class Simulator:
    """A deterministic event-driven simulator with integer cycle time."""

    STATE = ("now", "events_processed", "_queue", "_seq")
    REBUILT = ("_running", "_stop")  # run-loop flags, False between slices

    def __init__(self) -> None:
        #: Current simulation time in cycles.  Plain attributes (not
        #: properties): ``now`` is read on every hot path in the library and
        #: a property descriptor call per read is measurable overhead.
        #: Treat both as read-only from outside the engine.
        self.now: int = 0
        #: Number of events fired so far.
        self.events_processed: int = 0
        self._queue: list = []
        self._seq: int = 0
        self._running: bool = False
        self._stop: bool = False

    # ------------------------------------------------------------------ time
    @property
    def pending_events(self) -> int:
        """Number of events still in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------ scheduling
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + int(delay), priority, seq, callback, args))

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current cycle is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, priority, seq, callback, args))

    # --------------------------------------------------------------- running
    def stop(self) -> None:
        """Request the current run loop to return after the event in flight.

        Lets a callback end the run the moment a termination condition is
        met (e.g. the last workload thread finishing) without the driver
        paying a per-event Python call to poll for it.
        """
        self._stop = True

    def _loop(
        self,
        until: Optional[int],
        max_events: Optional[int],
        stop_at: Optional[int] = None,
    ) -> int:
        """The one event loop behind run/step/drain; returns events fired.

        ``until`` is a pre-fire bound: events past it stay queued and time
        advances to exactly ``until``.  ``stop_at`` is a post-fire bound:
        the event that reaches (or crosses) it still fires, matching the
        truncation semantics of ``Manycore.run(max_cycles=...)``.
        """
        queue = self._queue
        fired = 0
        while queue:
            if max_events is not None and fired >= max_events:
                return fired
            if until is not None and queue[0][0] > until:
                self.now = until
                return fired
            time, _priority, _seq, callback, args = heappop(queue)
            self.now = time
            self.events_processed += 1
            callback(*args)
            fired += 1
            if self._stop:
                self._stop = False
                return fired
            if stop_at is not None and time >= stop_at:
                return fired
        if until is not None and until > self.now:
            self.now = until
        return fired

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue is empty."""
        return self._loop(None, 1) > 0

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_at: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, a bound is hit, or :meth:`stop` is called.

        ``until`` stops *before* firing events beyond it (and advances time
        to ``until``); ``stop_at`` stops *after* firing the event that
        reached it.  Returns the simulation time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        self._stop = False
        try:
            self._loop(until, max_events, stop_at)
        finally:
            self._running = False
        return self.now

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain, guarding against runaway simulations.

        Unlike :meth:`run`, draining ignores :meth:`stop` requests: it keeps
        looping until the queue is truly empty (or the event budget is
        spent), so a callback-driven stop never masquerades as a livelock.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant drain call)")
        self._running = True
        self._stop = False
        remaining = max_events
        try:
            while True:
                before = self.events_processed
                self._loop(None, remaining)
                remaining -= self.events_processed - before
                if not self._queue:
                    return self.now
                if remaining <= 0:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely livelock"
                    )
                # _loop returned early because a callback called stop();
                # keep draining the remainder.
        finally:
            self._running = False

"""The shared wireless Data channel.

Single-channel medium shared by every transceiver on the chip.  Transfers
are slotted at one cycle; an ordinary message takes 5 cycles (collision
detected and aborted after 2), a Bulk message takes 15 cycles (Section 4.1).
Exactly one transmitter can use the channel at a time; simultaneous attempts
collide and the colliding MACs back off.

The channel is the serialization point that gives broadcast-memory writes
their chip-wide total order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.config import DataChannelConfig
from repro.errors import WirelessError
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry

#: Event priority used for channel arbitration so that every transmission
#: attempt registered for a cycle is visible before the winner is decided.
ARBITRATION_PRIORITY = 10


class WirelessMessage(NamedTuple):
    """One Data-channel transfer (Section 4.1 message format).

    A NamedTuple rather than a frozen dataclass: messages are created on
    every broadcast store and frozen-dataclass construction (one guarded
    ``object.__setattr__`` per field) is measurably slower.
    """

    sender: int
    bm_addr: int
    value: int = 0
    bulk: bool = False
    tone_bit: bool = False
    bulk_values: Tuple[int, ...] = ()

    def duration(self, config: DataChannelConfig) -> int:
        """Channel occupancy of this message in cycles."""
        return config.bulk_message_cycles if self.bulk else config.message_cycles


class _Attempt:
    """One queued transmission, and the caller's handle to it.

    ``transmit`` returns the attempt itself.  The BM controller aborts a
    pending RMW broadcast through it when its atomicity has already failed
    (Section 4.2.1: the instruction "neither broadcasts its value nor
    updates the local BM"); :meth:`cancel` succeeds only while the message
    has not yet started occupying the channel.
    """

    __slots__ = (
        "channel",
        "message",
        "on_complete",
        "on_collision",
        "enqueued_at",
        "slot",
        "started",
    )

    def __init__(
        self,
        channel: "DataChannel",
        message: WirelessMessage,
        on_complete: Callable[[WirelessMessage, int], None],
        on_collision: Callable[[WirelessMessage], int],
        enqueued_at: int,
    ) -> None:
        self.channel = channel
        self.message = message
        self.on_complete = on_complete
        self.on_collision = on_collision
        self.enqueued_at = enqueued_at
        #: The cycle whose arbitration holds this attempt; set again by
        #: every (re-)registration.
        self.slot = enqueued_at
        self.started = False

    def cancel(self) -> bool:
        """Abort the transmission; returns True if it had not started yet.

        The attempt leaves its slot at once.  The slot's list stays, so its
        arbitration event still fires, with one sender fewer.
        """
        if self.started:
            return False
        self.channel._attempts_by_cycle[self.slot].remove(self)
        return True


class DataChannel:
    """Event-accurate single-frequency-band data channel with collisions."""

    STATE = ("_busy_until", "_attempts_by_cycle", "completed")
    REBUILT = (
        "sim", "config", "stats", "_listeners", "_messages_counter",
        "_collisions_counter", "_channel_util", "_latency_hist",
    )

    def __init__(
        self,
        sim: Simulator,
        config: DataChannelConfig,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self._busy_until: int = 0
        #: Queued attempts per slot; a cycle is a key exactly while its
        #: arbitration event is scheduled.
        self._attempts_by_cycle: Dict[int, List[_Attempt]] = {}
        self._listeners: List[Callable[[WirelessMessage, int], None]] = []
        #: Transfers finished so far.  Each transceiver folds the ones it has
        #: not yet seen into its backoff lazily (``Transceiver._observe``).
        self.completed = 0
        # Flyweight stat handles, bound once so the per-message hot path does
        # no string-keyed registry lookups.
        self._messages_counter = self.stats.counter("wireless/messages")
        self._collisions_counter = self.stats.counter("wireless/collisions")
        self._channel_util = self.stats.utilization("wireless/data_channel")
        self._latency_hist = self.stats.histogram("wireless/transfer_latency")

    # ------------------------------------------------------------ listeners
    def add_listener(self, callback: Callable[[WirelessMessage, int], None]) -> None:
        """Register a callback invoked for every successfully delivered message.

        All antennas are always listening (Section 3.1), so a listener sees
        every message regardless of sender.  The callback receives the
        message and its delivery (completion) cycle.
        """
        self._listeners.append(callback)

    # ------------------------------------------------------------- transmit
    def transmit(
        self,
        message: WirelessMessage,
        on_complete: Callable[[WirelessMessage, int], None],
        on_collision: Callable[[WirelessMessage], int],
        earliest: Optional[int] = None,
    ) -> _Attempt:
        """Queue a transmission attempt and return it.

        ``on_complete(message, completion_cycle)`` fires when the transfer
        succeeds; ``on_collision(message)`` is consulted on each collision
        and must return the sender's backoff delay in cycles.  The returned
        attempt can cancel the transmission while it has not started.
        """
        now = self.sim.now
        start = max(now, self._busy_until, earliest if earliest is not None else now)
        attempt = _Attempt(self, message, on_complete, on_collision, now)
        self._register_attempt(start, attempt)
        return attempt

    def busy_until(self) -> int:
        """Earliest cycle the channel is currently expected to be free."""
        return self._busy_until

    # --------------------------------------------------------------- internal
    def _register_attempt(self, cycle: int, attempt: _Attempt) -> None:
        if cycle < self.sim.now:
            raise WirelessError("attempt registered in the past")
        attempt.slot = cycle
        attempts = self._attempts_by_cycle.get(cycle)
        if attempts is None:
            self._attempts_by_cycle[cycle] = [attempt]
            self.sim.schedule_at(cycle, self._arbitrate, cycle, priority=ARBITRATION_PRIORITY)
        else:
            attempts.append(attempt)

    def _arbitrate(self, cycle: int) -> None:
        attempts = self._attempts_by_cycle.pop(cycle)
        if not attempts:
            return
        if cycle < self._busy_until:
            # The channel became busy after these attempts were queued
            # (another sender won an earlier slot); re-queue at the next
            # expected-free cycle, as the MAC does (Section 4.1).  Attempts
            # that targeted different original slots keep their relative
            # order (slot-granular deference), so a deferred sender does not
            # lose the spreading its earlier backoff achieved.
            for index, attempt in enumerate(attempts):
                self._register_attempt(self._busy_until + index, attempt)
            return
        if len(attempts) == 1:
            self._deliver(cycle, attempts[0])
            return
        self._collide(cycle, attempts)

    def _deliver(self, cycle: int, attempt: _Attempt) -> None:
        attempt.started = True
        duration = attempt.message.duration(self.config)
        completion = cycle + duration
        self._busy_until = completion
        self._messages_counter.add()
        self._channel_util.add_busy(duration)
        self._latency_hist.record(completion - attempt.enqueued_at)
        self.sim.schedule_at(completion, self._complete, attempt, completion)

    def _complete(self, attempt: _Attempt, completion: int) -> None:
        """Deliver a finished transfer to its sender and to every listener.

        All antennas are always listening (Section 3.1), and every MAC
        relaxes its window on each success it hears.  That fan-out is O(1)
        here: the channel only counts the transfer, and each transceiver
        folds the successes it has not yet seen into its backoff before it
        next reads or updates it.  The count goes up after the sender's hook
        and the listeners have run, so a backoff draw made inside them sees
        the window as it was before this transfer.
        """
        message = attempt.message
        attempt.on_complete(message, completion)
        for listener in self._listeners:
            listener(message, completion)
        self.completed += 1

    def _collide(self, cycle: int, attempts: Sequence[_Attempt]) -> None:
        penalty = self.config.collision_penalty_cycles
        free_at = cycle + penalty
        self._busy_until = max(self._busy_until, free_at)
        self._collisions_counter.add()
        self._channel_util.add_busy(penalty)
        for attempt in attempts:
            backoff = attempt.on_collision(attempt.message)
            if backoff < 0:
                raise WirelessError("backoff must be non-negative")
            # The retry slot is relative to the end of the collision window;
            # if the channel is busy again by then, the arbitration of that
            # slot defers the attempt while preserving its backoff offset.
            self._register_attempt(free_at + backoff, attempt)

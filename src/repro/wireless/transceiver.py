"""Per-node wireless transceiver: PHY serialization plus the MAC.

The MAC decides when a write is sent on the Data channel, detects collisions
(reported back by the channel), runs the backoff policy, and retries until
the transfer succeeds (Section 3.2).  A node has at most one broadcast store
in flight at a time — subsequent stores from the same core wait until the
current one has performed globally (Section 4.2.1) — so the transceiver
keeps a small FIFO of pending transmissions.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.config import DataChannelConfig
from repro.sim.stats import StatsRegistry
from repro.wireless.backoff import BackoffPolicy
from repro.wireless.channel import DataChannel, WirelessMessage, _Attempt


class _PendingSend:
    """One queued or in-flight send: the caller's ticket and the channel's hook.

    ``send_*`` return it, and the BM controller aborts an RMW's broadcast
    through :meth:`cancel` once its atomicity has failed, so the stale value
    never occupies the Data channel.  The channel calls it when the transfer
    lands.
    """

    __slots__ = ("transceiver", "send_id", "message", "on_complete", "attempt", "done")

    def __init__(
        self,
        transceiver: "Transceiver",
        send_id: int,
        message: WirelessMessage,
        on_complete: Callable[[WirelessMessage, int], None],
    ) -> None:
        self.transceiver = transceiver
        #: Stable per-transceiver id; the snapshot codec uses ``(node,
        #: send_id)`` to re-link channel attempts to their pending sends.
        self.send_id = send_id
        self.message = message
        self.on_complete = on_complete
        self.attempt: Optional[_Attempt] = None
        self.done = False

    def __call__(self, message: WirelessMessage, cycle: int) -> None:
        self.transceiver._on_complete(self, message, cycle)

    def cancel(self) -> bool:
        """Abort the send; returns True if nothing was (or will be) transmitted."""
        return self.transceiver._cancel(self)


class Transceiver:
    """MAC front end of one node."""

    def __init__(
        self,
        node_id: int,
        channel: DataChannel,
        backoff: BackoffPolicy,
        config: DataChannelConfig,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.node_id = node_id
        self.channel = channel
        self.backoff = backoff
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        self._queue: Deque[_PendingSend] = deque()
        self._in_flight: Optional[_PendingSend] = None
        self._next_send_id = 0
        self.sent_messages = 0
        self.collisions_seen = 0
        # Per-node flyweight stat handles, bound once per transceiver.
        self._sent_counter = self.stats.counter(f"transceiver/{node_id}/sent")
        self._collision_counter = self.stats.counter(f"transceiver/{node_id}/collisions")
        #: Channel transfers already folded into the backoff (``_observe``).
        self._seen = channel.completed

    # ---------------------------------------------------------------- sends
    def send_store(
        self,
        bm_addr: int,
        value: int,
        on_complete: Callable[[WirelessMessage, int], None],
    ) -> _PendingSend:
        """Broadcast a single-word BM store."""
        message = WirelessMessage(sender=self.node_id, bm_addr=bm_addr, value=value)
        return self._enqueue(self._new_pending(message, on_complete))

    def send_bulk_store(
        self,
        bm_addr: int,
        values: Tuple[int, int, int, int],
        on_complete: Callable[[WirelessMessage, int], None],
    ) -> _PendingSend:
        """Broadcast a Bulk store of four consecutive BM entries (15 cycles)."""
        message = WirelessMessage(
            sender=self.node_id,
            bm_addr=bm_addr,
            value=values[0],
            bulk=True,
            bulk_values=tuple(values),
        )
        return self._enqueue(self._new_pending(message, on_complete))

    def send_tone_init(
        self,
        bm_addr: int,
        on_complete: Callable[[WirelessMessage, int], None],
    ) -> _PendingSend:
        """Send the Data-channel message with the Tone bit set.

        The first core to arrive at a tone barrier announces it this way
        (Section 4.2.2); the 64-bit data field is immaterial.
        """
        message = WirelessMessage(sender=self.node_id, bm_addr=bm_addr, value=0, tone_bit=True)
        return self._enqueue(self._new_pending(message, on_complete))

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._in_flight is not None else 0)

    # ------------------------------------------------------------- internals
    def _new_pending(self, message: WirelessMessage, on_complete: Callable) -> _PendingSend:
        pending = _PendingSend(self, self._next_send_id, message, on_complete)
        self._next_send_id += 1
        return pending

    def _enqueue(self, pending: _PendingSend) -> _PendingSend:
        self._queue.append(pending)
        self._pump()
        return pending

    def _observe(self) -> None:
        """Fold the successes heard since the last fold into the backoff.

        Every antenna hears every transfer, and observed successes relax the
        contention window (Section 5.3's decrement rule on a broadcast
        medium).  Rather than take a listener call per message, the MAC
        applies the channel's unseen transfers in one step before each
        backoff read or update; ``on_observed_success(count)`` is exact, so
        the window and the draws are those of ``count`` single steps.
        """
        unseen = self.channel.completed - self._seen
        if unseen > 0:
            self._seen += unseen
            self.backoff.on_observed_success(unseen)

    def _pump(self) -> None:
        if self._in_flight is not None or not self._queue:
            return
        pending = self._queue.popleft()
        self._in_flight = pending
        # Under observed contention the MAC spreads even fresh transmissions
        # over its backoff window instead of piling onto the next free slot.
        self._observe()
        deferral = self.backoff.deferral()
        earliest = self.channel.sim.now + deferral if deferral > 0 else None
        pending.attempt = self.channel.transmit(
            pending.message,
            on_complete=pending,
            on_collision=self._on_collision,
            earliest=earliest,
        )

    def _cancel(self, pending: _PendingSend) -> bool:
        if pending.done:
            return False
        if self._in_flight is pending:
            if not pending.attempt.cancel():
                return False
            pending.done = True
            self._in_flight = None
            self._pump()
            return True
        # A send that is neither done nor in flight is still queued.
        self._queue.remove(pending)
        pending.done = True
        return True

    def _on_complete(self, pending: _PendingSend, message: WirelessMessage, cycle: int) -> None:
        pending.done = True
        self._in_flight = None
        self.sent_messages += 1
        self._observe()
        self.backoff.on_success()
        # The channel counts this transfer after its hooks return; step past
        # it now, so the MAC never counts its own message as observed.
        self._seen = self.channel.completed + 1
        self._sent_counter.add()
        pending.on_complete(message, cycle)
        self._pump()

    def _on_collision(self, message: WirelessMessage) -> int:
        self.collisions_seen += 1
        self._collision_counter.add()
        self._observe()
        return self.backoff.on_collision()

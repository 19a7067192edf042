"""Single-producer / single-consumer channel (Section 4.3.4).

The producer writes a 4-word payload and sets a full/empty flag; the
consumer waits for the flag, reads the payload, and clears the flag.  On
WiSync both sides use Bulk stores/loads so the payload moves in a single
15-cycle wireless message; on conventional machines the payload moves as
ordinary cached stores and loads.  The ``sync.channel.produce`` and
``sync.channel.consume`` routines in :mod:`repro.sync.frames` run the
protocol.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import WorkloadError


class ProducerConsumerChannel:
    """One full/empty-flag slot carrying four 64-bit words."""

    def __init__(self, data_addr: int, flag_addr: int, wireless: bool) -> None:
        self.data_addr = data_addr
        self.flag_addr = flag_addr
        self.wireless = wireless

    @staticmethod
    def _payload(values: Sequence[int]) -> Tuple[int, int, int, int]:
        values = tuple(values)
        if len(values) != 4:
            raise WorkloadError("producer/consumer payloads are exactly four words")
        return values  # type: ignore[return-value]

"""OR-barriers ("eurekas", Section 4.3.2).

An OR-barrier fires as soon as *one* participant detects a condition
(search success, overflow, exception).  It is a sense-reversing boolean
flag: posters toggle it, and the other threads block on it.  The
``sync.eureka.post`` and ``sync.eureka.wait`` routines in
:mod:`repro.sync.frames` run the protocol.
"""

from __future__ import annotations

from typing import Dict

from repro.sync.cells import AtomicCell


class OrBarrier:
    """Sense-reversing eureka flag over an :class:`AtomicCell`."""

    def __init__(self, cell: AtomicCell) -> None:
        self.cell = cell
        self._sense: Dict[int, int] = {}

    def _advance_sense(self, thread_id: int) -> int:
        sense = self._sense.get(thread_id, 0) ^ 1
        self._sense[thread_id] = sense
        return sense

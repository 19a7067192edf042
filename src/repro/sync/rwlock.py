"""Readers-writer lock over one :class:`~repro.sync.cells.AtomicCell`.

Not a paper primitive — part of the contention-scenario suite.  The lock
word encodes the whole state in one shared 64-bit location so the same
algorithm runs against cached memory (Baseline/Baseline+) and the Broadcast
Memory (WiSync): a value below :data:`WRITER_HELD` is the count of active
readers, and exactly :data:`WRITER_HELD` means a writer holds the lock.

Readers enter with a CAS incrementing the count (retrying while a writer is
in), writers CAS ``0 -> WRITER_HELD`` (waiting for drain on failure); both
sides spin on the cell's wait operation, which is local-replica polling on
WiSync and coherence-based spinning on the baselines.  Readers are
preferred: a stream of overlapping readers can starve a writer, which is
exactly the contended regime the ``rwlock`` scenario measures.  The
``sync.rwlock.*`` routines in :mod:`repro.sync.frames` run the protocol.
"""

from __future__ import annotations

from repro.sync.cells import AtomicCell

#: Lock-word value while a writer is inside (far above any reader count).
WRITER_HELD = 1 << 32


class ReadersWriterLock:
    """Shared/exclusive lock encoded in a single atomic word."""

    REBUILT = ("cell",)

    def __init__(self, cell: AtomicCell) -> None:
        self.cell = cell

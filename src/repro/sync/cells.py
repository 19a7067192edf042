"""Atomic cells: a uniform view of one shared 64-bit counter/flag/word.

Workloads that only need "a shared word with atomic operations" (the CAS
kernels, reductions, eureka flags) use an :class:`AtomicCell` so the same
kernel code runs against cached memory (Baseline/Baseline+) and against the
Broadcast Memory (WiSync).  A cell builds the operation for each single-op
access (:meth:`~AtomicCell.read_op`, :meth:`~AtomicCell.write_op`,
:meth:`~AtomicCell.wait_op`), which frame routines issue directly; the
atomic read-modify-writes run as the ``sync.cell.cas`` and
``sync.cell.fetch_add`` routines of :mod:`repro.sync.frames`, which own the
Broadcast Memory's AFB retry loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.isa.operations import BmLoad, BmStore, BmWaitUntil, Read, WaitUntil, Write


class AtomicCell(ABC):
    """One shared 64-bit location with atomic read-modify-write support."""

    REBUILT = ("addr",)

    #: Whether the cell lives in the Broadcast Memory.  The RMW routines
    #: branch on it every step: a class attribute read, where an
    #: ``isinstance`` check against this ABC goes through
    #: ``ABCMeta.__instancecheck__``.
    wireless = False

    def __init__(self, addr: int) -> None:
        self.addr = addr

    @abstractmethod
    def read_op(self) -> Any:
        """The operation that loads the value."""

    @abstractmethod
    def write_op(self, value: int) -> Any:
        """The operation that stores ``value``."""

    @abstractmethod
    def wait_op(self, predicate: Callable[[int], bool]) -> Any:
        """The operation that spins until ``predicate(value)``; its result is
        the satisfying value."""


class CachedCell(AtomicCell):
    """A cell held in regular cached memory, kept coherent by the directory."""

    def read_op(self) -> Read:
        return Read(self.addr)

    def write_op(self, value: int) -> Write:
        return Write(self.addr, value)

    def wait_op(self, predicate: Callable[[int], bool]) -> WaitUntil:
        return WaitUntil(self.addr, predicate)


class BroadcastCell(AtomicCell):
    """A cell held in the Broadcast Memory and updated over the Data channel.

    Atomic operations follow the paper's AFB protocol (Figure 4a-b): if the
    Atomicity Failure Bit is set, the RMW instruction did not perform its
    write and is re-executed.
    """

    wireless = True
    #: Safety bound on AFB retries; contention never realistically needs this.
    MAX_RETRIES = 10_000

    def read_op(self) -> BmLoad:
        return BmLoad(self.addr)

    def write_op(self, value: int) -> BmStore:
        return BmStore(self.addr, value)

    def wait_op(self, predicate: Callable[[int], bool]) -> BmWaitUntil:
        return BmWaitUntil(self.addr, predicate)

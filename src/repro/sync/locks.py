"""Lock implementations for the Table 2 configurations.

* :class:`CasSpinLock` — Baseline: test-and-test-and-set style spin lock
  built only from CAS on cached memory.
* :class:`McsLock` — Baseline+: the queue lock of Mellor-Crummey & Scott
  [31]; each waiter spins on its own cache line, so release traffic is
  point-to-point.
* :class:`WirelessLock` — WiSync: CAS on a Broadcast-Memory location with
  AFB-based retry (Figure 4b); waiters spin on their local BM replica, so
  spinning generates no network traffic at all.

These classes hold each lock's addresses (and the MCS queue nodes); the
``sync.lock.acquire`` and ``sync.lock.release`` routines in
:mod:`repro.sync.frames` run the algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple


class Lock:
    """Mutual exclusion over one logical lock variable."""


class CasSpinLock(Lock):
    """Baseline lock: CAS acquire with coherence-based spinning on failure."""

    REBUILT = ("addr",)

    def __init__(self, addr: int) -> None:
        self.addr = addr


class McsLock(Lock):
    """Baseline+ lock: MCS queue lock with per-thread queue nodes.

    Queue-node "pointers" are encoded as ``thread_id + 1`` (0 means null).
    Each thread's queue node (a ``locked`` flag and a ``next`` pointer) lives
    on its own cache line, allocated lazily through ``alloc_word``.
    """

    STATE = ("_qnodes",)
    REBUILT = ("tail_addr", "_alloc_word")

    def __init__(self, tail_addr: int, alloc_word: Callable[[], int]) -> None:
        self.tail_addr = tail_addr
        self._alloc_word = alloc_word
        self._qnodes: Dict[int, Tuple[int, int]] = {}

    def _qnode(self, thread_id: int) -> Tuple[int, int]:
        if thread_id not in self._qnodes:
            locked_addr = self._alloc_word()
            next_addr = self._alloc_word()
            self._qnodes[thread_id] = (locked_addr, next_addr)
        return self._qnodes[thread_id]


class WirelessLock(Lock):
    """WiSync lock: CAS on a BM entry, retried while the AFB is set."""

    MAX_RETRIES = 10_000
    REBUILT = ("bm_addr",)

    def __init__(self, bm_addr: int) -> None:
        self.bm_addr = bm_addr

"""Barrier implementations for the Table 2 configurations.

* :class:`CentralizedBarrier` — Baseline: sense-reversing centralized barrier
  whose counter is incremented with a CAS retry loop (Baseline's only atomic)
  and whose release flag is spun on through the coherence protocol.
* :class:`TournamentBarrier` — Baseline+: a sense-reversing combining-tree /
  tournament barrier [31]: arrival climbs a tree, wake-up descends it, every
  thread spins on its own flag, so there is no hot spot.
* :class:`WirelessBarrier` — WiSync Data-channel barrier (Section 4.3.2):
  fetch&increment on a BM counter plus a broadcast release write.
* :class:`ToneBarrier` — WiSync Tone-channel barrier (Section 4.3.3):
  ``tone_st`` on arrival, spin locally with ``tone_ld`` until the hardware
  toggles the location when the channel falls silent.

These classes hold each barrier's addresses and per-thread sense; the
``sync.barrier.wait`` routine in :mod:`repro.sync.frames` runs the
algorithms.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import WorkloadError


class Barrier:
    """AND-barrier: every participant waits for all the others."""

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise WorkloadError("a barrier needs at least one participant")
        self.num_threads = num_threads
        self._sense: Dict[int, int] = {}

    def _toggle_sense(self, thread_id: int) -> int:
        sense = self._sense.get(thread_id, 0) ^ 1
        self._sense[thread_id] = sense
        return sense


class CentralizedBarrier(Barrier):
    """Baseline sense-reversing barrier on cached memory, CAS-only hardware."""

    def __init__(self, num_threads: int, count_addr: int, release_addr: int) -> None:
        super().__init__(num_threads)
        self.count_addr = count_addr
        self.release_addr = release_addr


class TournamentBarrier(Barrier):
    """Baseline+ combining-tree (tournament) barrier with tree wake-up.

    Thread ``i``'s children in the static binary tree are ``2i+1`` and
    ``2i+2``.  Arrival propagates up the tree, release propagates down it;
    every flag lives on its own cache line.
    """

    def __init__(self, num_threads: int, arrival_addrs: List[int], wakeup_addrs: List[int]) -> None:
        super().__init__(num_threads)
        if len(arrival_addrs) < num_threads or len(wakeup_addrs) < num_threads:
            raise WorkloadError("tournament barrier needs one arrival and wakeup flag per thread")
        self.arrival_addrs = arrival_addrs
        self.wakeup_addrs = wakeup_addrs

    def _children(self, thread_id: int) -> List[int]:
        children = []
        for child in (2 * thread_id + 1, 2 * thread_id + 2):
            if child < self.num_threads:
                children.append(child)
        return children


class WirelessBarrier(Barrier):
    """WiSync Data-channel barrier: BM fetch&inc plus a broadcast release.

    The paper notes the count and the release flag could share one 64-bit
    entry (32 bits each); two entries are used here for clarity — the timing
    is identical because only the last arrival writes the release word.
    """

    MAX_RETRIES = 10_000

    def __init__(self, num_threads: int, count_addr: int, release_addr: int) -> None:
        super().__init__(num_threads)
        self.count_addr = count_addr
        self.release_addr = release_addr


class ToneBarrier(Barrier):
    """WiSync Tone-channel barrier (Figure 4c).

    Arrival is a ``tone_st``; completion is observed by spinning with
    ``tone_ld`` on the local BM location, which the hardware toggles when the
    Tone channel falls silent.
    """

    def __init__(self, num_threads: int, bm_addr: int) -> None:
        super().__init__(num_threads)
        self.bm_addr = bm_addr

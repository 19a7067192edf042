"""Host-speed calibration for the in-process timings.

On a shared host the interpreter's speed drifts by tens of percent over
seconds to minutes (other tenants load the same cores and caches), which no
statistic over one run can remove when the whole run falls in a slow phase.
The benchmark therefore runs a fixed pure-Python kernel -- a small discrete
event loop over a heap of slotted objects, the same kind of work the
simulator does, but sharing no code with it -- right before every timed
interval, and scales the interval by how much slower than the reference the
kernel ran.  A change to the simulator cannot change the kernel, so it moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import deque

#: Kernel time on the reference host (a 2-core x86-64 VM at its fastest);
#: scaled times are seconds on that host.
REFERENCE_KERNEL_S = 0.005

_EVENTS = 6000


class _Event:
    __slots__ = ("time", "key", "callback")

    def __init__(self, time_: int, key: int, callback) -> None:
        self.time = time_
        self.key = key
        self.callback = callback


def _kernel() -> int:
    queue: list = []
    state: dict = {}

    def callback(key: int) -> None:
        state[key % 97] = state.get(key % 97, 0) + key

    for key in range(64):
        heapq.heappush(queue, (key, key, _Event(key, key, callback)))
    seq = 64
    for _ in range(_EVENTS):
        now, _, event = heapq.heappop(queue)
        event.callback(event.key)
        seq += 1
        heapq.heappush(queue, (now + 1 + (seq * 7919) % 13, seq, _Event(now, seq, callback)))
    return len(state)


def slowdown() -> float:
    """How many times slower than the reference host the kernel runs now."""
    started = time.perf_counter()
    _kernel()
    return (time.perf_counter() - started) / REFERENCE_KERNEL_S


class Gauge:
    """The host's current slowdown: the median of the last few kernel runs.

    One 5 ms kernel run is itself noisy; the running median keeps tracking
    slow phases longer than a few grid points while damping that noise.
    """

    WINDOW = 5

    def __init__(self) -> None:
        self._recent: deque = deque(maxlen=self.WINDOW)

    def sample(self) -> float:
        self._recent.append(slowdown())
        return statistics.median(self._recent)

"""Operation objects issued by simulated threads.

Two address spaces exist, mirroring the paper:

* **Cached memory** — regular variables, kept coherent by the MOESI directory
  protocol over the wired mesh (``Read``, ``Write``, ``AtomicOp``,
  ``WaitUntil``).
* **Broadcast memory (BM)** — variables declared ``broadcast``, replicated in
  every node's BM and updated through the wireless Data channel (``Bm*`` and
  ``Tone*`` operations).

Values are plain Python integers; addresses are integers in each space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


class RmwKind(enum.Enum):
    """Atomic read-modify-write flavors supported by both memory spaces."""

    TEST_AND_SET = "test_and_set"
    FETCH_AND_INC = "fetch_and_inc"
    FETCH_AND_ADD = "fetch_and_add"
    COMPARE_AND_SWAP = "compare_and_swap"
    SWAP = "swap"


# --------------------------------------------------------------------------
# Core-local operations
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Compute:
    """Execute ``cycles`` of local computation (no memory traffic)."""

    cycles: int


@dataclass(frozen=True)
class Fence:
    """Order prior operations before later ones (modelled as a 1-cycle stall)."""

    cycles: int = 1


# --------------------------------------------------------------------------
# Cached (regular) memory operations
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Read:
    """Load from cached memory.  The result is the loaded value."""

    addr: int
    size: int = 8


@dataclass(frozen=True)
class Write:
    """Store to cached memory."""

    addr: int
    value: int = 0
    size: int = 8


@dataclass(frozen=True)
class AtomicOp:
    """Atomic read-modify-write on cached memory.

    The result is a tuple ``(old_value, success)``.  For CAS,
    ``success`` indicates whether the swap happened; for the other kinds it
    is always True.
    """

    addr: int
    kind: RmwKind
    operand: int = 1
    expected: int = 0


@dataclass(frozen=True)
class WaitUntil:
    """Spin on a cached location until ``predicate(value)`` becomes true.

    The machine models the spin as coherence-based waiting: the core holds
    the line in shared state and is re-notified (invalidate + refill latency,
    plus serialization if many spinners refill at once) whenever a writer
    updates it.  The result is the value that satisfied the predicate.
    """

    addr: int
    predicate: Callable[[int], bool]
    poll_interval: int = 0


# --------------------------------------------------------------------------
# Broadcast-memory operations (WiSync hardware)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class BmAlloc:
    """Allocate ``words`` consecutive BM entries; the result is the base BM address."""

    words: int = 1
    tone_capable: bool = False
    participants: Optional[Sequence[int]] = None


@dataclass(frozen=True)
class BmFree:
    """Deallocate a previously allocated BM range."""

    addr: int
    words: int = 1


@dataclass(frozen=True)
class BmLoad:
    """Plain load from the local BM (always succeeds, local latency only)."""

    addr: int


@dataclass(frozen=True)
class BmStore:
    """Store broadcast to every BM through the wireless Data channel."""

    addr: int
    value: int


@dataclass(frozen=True)
class BmBulkLoad:
    """Bulk load of four consecutive BM entries; the result is a tuple of 4 values."""

    addr: int


@dataclass(frozen=True)
class BmBulkStore:
    """Bulk store of four consecutive BM entries (one 15-cycle message)."""

    addr: int
    values: Sequence[int] = field(default=(0, 0, 0, 0))


@dataclass(frozen=True)
class BmRmw:
    """Atomic RMW on a BM location.

    The result is a :class:`repro.core.bm_controller.RmwResult` whose
    ``afb`` field is the Atomicity Failure Bit: if it is set the instruction
    did *not* perform its write and software must retry (paper
    Section 4.2.1 / Figure 4a-b).  For a CAS whose comparison fails,
    ``success`` is False and no wireless transfer is attempted.
    """

    addr: int
    kind: RmwKind
    operand: int = 1
    expected: int = 0


@dataclass(frozen=True)
class BmWaitUntil:
    """Spin with plain BM loads until ``predicate(value)`` is true.

    Local BM loads are cheap (2-cycle round trip) and generate no wireless
    traffic, so this wait only costs the time until a broadcast write
    changes the location, plus the local BM read latency.
    """

    addr: int
    predicate: Callable[[int], bool]


# --------------------------------------------------------------------------
# Tone-channel operations (hardware barriers)
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ToneBarrierAlloc:
    """Allocate a tone-capable BM entry and arm the given participant cores."""

    participants: Sequence[int] = ()


@dataclass(frozen=True)
class ToneStore:
    """tone_st: signal arrival at the tone barrier for this BM address."""

    addr: int


@dataclass(frozen=True)
class ToneLoad:
    """tone_ld: read the sense of the tone barrier location."""

    addr: int


@dataclass(frozen=True)
class ToneWait:
    """Spin with tone_ld until the barrier sense flips to ``local_sense``."""

    addr: int
    local_sense: int

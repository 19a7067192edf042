"""WiSync core architecture: the paper's primary contribution.

This package models the per-core Broadcast Memory (BM), the BM controller
with its Write Completion and Atomicity Failure bits, TLB-based BM address
translation with PID-tagged chunk protection, the tone controller with its
AllocB/ActiveB tables, and the :class:`~repro.core.fabric.BroadcastFabric`
that connects all of it to the wireless Data and Tone channels.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BmEntry",
    "BroadcastMemory",
    "BmAllocator",
    "BmController",
    "RmwResult",
    "BroadcastFabric",
    "WiSyncNode",
    "ToneController",
    "BmTlb",
    "PageMapping",
]

_EXPORTS = {
    "BmAllocator": "repro.core.allocator",
    "BmController": "repro.core.bm_controller",
    "RmwResult": "repro.core.bm_controller",
    "BmEntry": "repro.core.broadcast_memory",
    "BroadcastMemory": "repro.core.broadcast_memory",
    "BroadcastFabric": "repro.core.fabric",
    "WiSyncNode": "repro.core.node",
    "ToneController": "repro.core.tone_controller",
    "BmTlb": "repro.core.translation",
    "PageMapping": "repro.core.translation",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

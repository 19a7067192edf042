"""WiSync core architecture: the paper's primary contribution.

This package models the per-core Broadcast Memory (BM) with its PID-tagged
chunk allocation, the BM controller with its Write Completion and Atomicity
Failure bits, the tone controller with its AllocB/ActiveB tables, and the
:class:`~repro.core.fabric.BroadcastFabric` that connects all of it to the
wireless Data and Tone channels.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BmEntry",
    "BroadcastMemory",
    "BmController",
    "RmwResult",
    "BroadcastFabric",
    "WiSyncNode",
    "ToneController",
]

_EXPORTS = {
    "BmController": "repro.core.bm_controller",
    "RmwResult": "repro.core.bm_controller",
    "BmEntry": "repro.core.broadcast_memory",
    "BroadcastMemory": "repro.core.broadcast_memory",
    "BroadcastFabric": "repro.core.fabric",
    "WiSyncNode": "repro.core.node",
    "ToneController": "repro.core.tone_controller",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Cache hierarchy and directory-based coherence substrate.

Regular (non-broadcast) variables live here: private L1 caches, a shared L2
distributed in per-core banks, a MOESI-style directory, and off-chip DRAM
behind four memory controllers (Table 1).  The model is transaction level:
each access computes a completion cycle from cache state, directory state,
mesh distance, and serialization at the home bank.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AddressMap",
    "DirectoryEntry",
    "DramModel",
    "MemorySystem",
]

_EXPORTS = {
    "AddressMap": "repro.mem.address",
    "DirectoryEntry": "repro.mem.hierarchy",
    "DramModel": "repro.mem.dram",
    "MemorySystem": "repro.mem.hierarchy",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

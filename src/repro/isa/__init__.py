"""Abstract operations that simulated threads issue.

Workloads are plain Python generators.  Each ``yield`` hands the machine an
operation object from :mod:`repro.isa.operations`; the machine executes it on
the timing models (caches, NoC, wireless network, broadcast memory) and sends
back the architectural result (loaded value, CAS success flag, ...).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Compute",
    "Read",
    "Write",
    "AtomicOp",
    "RmwKind",
    "WaitUntil",
    "Fence",
    "BmAlloc",
    "BmFree",
    "BmLoad",
    "BmStore",
    "BmBulkLoad",
    "BmBulkStore",
    "BmRmw",
    "BmWaitUntil",
    "ToneBarrierAlloc",
    "ToneStore",
    "ToneLoad",
    "ToneWait",
]

_EXPORTS = {
    "AtomicOp": "repro.isa.operations",
    "BmAlloc": "repro.isa.operations",
    "BmBulkLoad": "repro.isa.operations",
    "BmBulkStore": "repro.isa.operations",
    "BmFree": "repro.isa.operations",
    "BmLoad": "repro.isa.operations",
    "BmRmw": "repro.isa.operations",
    "BmStore": "repro.isa.operations",
    "BmWaitUntil": "repro.isa.operations",
    "Compute": "repro.isa.operations",
    "Fence": "repro.isa.operations",
    "Read": "repro.isa.operations",
    "RmwKind": "repro.isa.operations",
    "ToneBarrierAlloc": "repro.isa.operations",
    "ToneLoad": "repro.isa.operations",
    "ToneStore": "repro.isa.operations",
    "ToneWait": "repro.isa.operations",
    "WaitUntil": "repro.isa.operations",
    "Write": "repro.isa.operations",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Abstract operations that simulated threads issue.

A thread's frame routines (:mod:`repro.cpu.frames`) issue operation objects
from :mod:`repro.isa.operations` one at a time, each as ``Op(operation,
label)``; the machine executes it on the timing models (caches, NoC, wireless
network, broadcast memory) and resumes the routine at ``label`` with the
architectural result (loaded value, CAS success flag, ...).
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

"""Software synchronization algorithms for every architecture configuration.

Each primitive is a data class (its addresses and per-thread state) plus
frame routines in :mod:`repro.sync.frames` that issue its abstract
operations, so the same workload code runs on all four Table 2
configurations: the :class:`~repro.sync.api.SyncFactory` picks CAS spin
locks / centralized barriers (Baseline), MCS locks / tournament barriers
(Baseline+), or the wireless and tone-channel algorithms of Section 4.3
(WiSyncNoT / WiSync).  Workload routines name a primitive by its
``sync_id`` and reach it through helpers such as
:func:`~repro.sync.frames.barrier_wait`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SyncFactory",
    "Barrier",
    "CentralizedBarrier",
    "TournamentBarrier",
    "WirelessBarrier",
    "ToneBarrier",
    "Lock",
    "CasSpinLock",
    "McsLock",
    "WirelessLock",
    "AtomicCell",
    "CachedCell",
    "BroadcastCell",
    "OrBarrier",
    "ProducerConsumerChannel",
    "ReadersWriterLock",
]

_EXPORTS = {
    "SyncFactory": "repro.sync.api",
    "Barrier": "repro.sync.barriers",
    "CentralizedBarrier": "repro.sync.barriers",
    "ToneBarrier": "repro.sync.barriers",
    "TournamentBarrier": "repro.sync.barriers",
    "WirelessBarrier": "repro.sync.barriers",
    "AtomicCell": "repro.sync.cells",
    "BroadcastCell": "repro.sync.cells",
    "CachedCell": "repro.sync.cells",
    "OrBarrier": "repro.sync.eureka",
    "CasSpinLock": "repro.sync.locks",
    "Lock": "repro.sync.locks",
    "McsLock": "repro.sync.locks",
    "WirelessLock": "repro.sync.locks",
    "ProducerConsumerChannel": "repro.sync.producer_consumer",
    "ReadersWriterLock": "repro.sync.rwlock",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

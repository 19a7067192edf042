"""Software synchronization algorithms for every architecture configuration.

Each primitive is expressed as generator methods that yield abstract
operations, so the same workload code runs on all four Table 2
configurations: the :class:`~repro.sync.api.SyncFactory` picks CAS spin
locks / centralized barriers (Baseline), MCS locks / tournament barriers
(Baseline+), or the wireless and tone-channel algorithms of Section 4.3
(WiSyncNoT / WiSync).
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
    "Reducer",
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
    "Reducer": "repro.sync.reduction",
    "ReadersWriterLock": "repro.sync.rwlock",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

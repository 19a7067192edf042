"""Factory that builds the right synchronization primitives for a machine.

Workloads never hard-code a lock or barrier algorithm.  They ask the
:class:`SyncFactory` — constructed from a :class:`~repro.machine.manycore.Program`
and the machine's :class:`~repro.config.SyncConfig` — for locks, barriers,
cells, channels, readers-writer locks, and eurekas; the factory returns the Baseline, Baseline+,
or WiSync implementation according to Table 2.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SyncConfig
from repro.errors import ConfigurationError
from repro.sync.barriers import (
    Barrier,
    CentralizedBarrier,
    ToneBarrier,
    TournamentBarrier,
    WirelessBarrier,
)
from repro.sync.cells import AtomicCell, BroadcastCell, CachedCell
from repro.sync.eureka import OrBarrier
from repro.sync.locks import CasSpinLock, Lock, McsLock, WirelessLock
from repro.sync.producer_consumer import ProducerConsumerChannel
from repro.sync.rwlock import ReadersWriterLock


class SyncFactory:
    """Builds synchronization objects appropriate for one machine configuration."""

    def __init__(self, program, sync_config: Optional[SyncConfig] = None) -> None:
        self.program = program
        self.config = sync_config if sync_config is not None else program.machine.config.sync
        self._machine_config = program.machine.config

    def _register(self, obj):
        """Give the primitive a stable creation-order ``sync_id``.

        Frame routines refer to primitives by this id; because the
        factory is driven by a deterministic build, ids are identical across
        rebuilds, which native snapshot restore relies on.
        """
        self.program.machine.register_sync(obj)
        return obj

    # ----------------------------------------------------------------- locks
    def create_lock(self) -> Lock:
        kind = self.config.lock_kind
        if kind == "cas_spin":
            return self._register(CasSpinLock(self.program.alloc_shared()))
        if kind == "mcs":
            return self._register(
                McsLock(
                    tail_addr=self.program.alloc_shared(),
                    alloc_word=lambda: self.program.alloc_shared(),
                )
            )
        if kind == "wireless":
            return self._register(WirelessLock(self.program.alloc_broadcast()))
        raise ConfigurationError(f"unknown lock kind {kind!r}")

    def create_locks(self, count: int) -> List[Lock]:
        """An array of locks (e.g. dedup/fluidanimate-style lock tables)."""
        return [self.create_lock() for _ in range(count)]

    # -------------------------------------------------------------- barriers
    def create_barrier(
        self,
        num_threads: int,
        participants: Optional[List[int]] = None,
    ) -> Barrier:
        """A barrier for ``num_threads`` participants.

        ``participants`` lists the cores involved (needed up front by tone
        barriers, Section 4.4); by default thread ``i`` runs on core
        ``i % num_cores``, matching the machine's default placement.
        """
        kind = self.config.barrier_kind
        if participants is None:
            num_cores = self._machine_config.num_cores
            participants = sorted({i % num_cores for i in range(num_threads)})
        if kind == "centralized":
            return self._register(
                CentralizedBarrier(
                    num_threads,
                    count_addr=self.program.alloc_shared(),
                    release_addr=self.program.alloc_shared(),
                )
            )
        if kind == "tournament":
            arrival = [self.program.alloc_shared() for _ in range(num_threads)]
            wakeup = [self.program.alloc_shared() for _ in range(num_threads)]
            return self._register(TournamentBarrier(num_threads, arrival, wakeup))
        if kind == "wireless":
            return self._register(
                WirelessBarrier(
                    num_threads,
                    count_addr=self.program.alloc_broadcast(),
                    release_addr=self.program.alloc_broadcast(),
                )
            )
        if kind == "tone":
            bm_addr = self.program.alloc_broadcast(
                1, tone_capable=True, participants=participants
            )
            return self._register(ToneBarrier(num_threads, bm_addr))
        raise ConfigurationError(f"unknown barrier kind {kind!r}")

    # ----------------------------------------------------------------- cells
    def create_cell(self) -> AtomicCell:
        """A shared atomic word in the fastest memory this machine offers.

        Reductions (Section 4.3.5) are fetch&add on such a cell
        (``sync.cell.fetch_add``): WiSync updates a BM entry directly, the
        conventional configurations use their atomics on cached memory.
        """
        if self.config.reduction_kind == "wireless":
            return self._register(BroadcastCell(self.program.alloc_broadcast()))
        return self._register(CachedCell(self.program.alloc_shared()))

    def create_cached_cell(self) -> AtomicCell:
        """A shared atomic word explicitly in cached memory (for baselines)."""
        return self._register(CachedCell(self.program.alloc_shared()))

    def create_rwlock(self) -> ReadersWriterLock:
        """A readers-writer lock in the fastest memory this machine offers."""
        return self._register(ReadersWriterLock(self.create_cell()))

    def create_or_barrier(self) -> OrBarrier:
        return self._register(OrBarrier(self.create_cell()))

    def create_channel(self) -> ProducerConsumerChannel:
        """A single-producer/single-consumer slot (Section 4.3.4)."""
        wireless = self.config.reduction_kind == "wireless"
        if wireless:
            data_addr = self.program.alloc_broadcast(4)
            flag_addr = self.program.alloc_broadcast(1)
        else:
            data_addr = self.program.alloc_shared(4)
            flag_addr = self.program.alloc_shared(1)
        return self._register(ProducerConsumerChannel(data_addr, flag_addr, wireless))

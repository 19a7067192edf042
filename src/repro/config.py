"""Configuration dataclasses for every modelled subsystem.

Default values follow Table 1 of the paper (architecture parameters) and
Section 4.1 (wireless parameters).  The four architecture configurations of
Table 2 and the sensitivity variants of Table 6 are built from these
dataclasses in :mod:`repro.machine.configs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CoreConfig:
    """Timing-relevant core parameters (Table 1, "General Parameters").

    Cores are modelled by cycle accounting, not as pipelines, so Table 1's
    frequency, ROB and load/store queue have no field here.
    """

    issue_width: int = 2

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ConfigurationError("issue width must be at least 1")


@dataclass(frozen=True)
class CacheConfig:
    """L1/L2 cache hierarchy parameters (Table 1).

    The shared L2 keeps every line it has filled (the memory system's
    resident set), so Table 1's 512 KB, 8-way banks have no field here.
    """

    line_bytes: int = 64
    l1_size_kb: int = 32
    l1_assoc: int = 2
    l1_latency: int = 2          # round-trip cycles
    l2_latency: int = 6          # local bank round-trip cycles

    def validate(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("cache line size must be a positive power of two")
        for name in ("l1_size_kb", "l1_assoc", "l1_latency", "l2_latency"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def l1_sets(self) -> int:
        return (self.l1_size_kb * 1024) // (self.line_bytes * self.l1_assoc)


@dataclass(frozen=True)
class NocConfig:
    """Wired 2D-mesh on-chip network parameters (Table 1)."""

    hop_latency: int = 4        # cycles per hop
    link_bits: int = 128
    router_latency: int = 1
    # Virtual tree-based broadcast with flit replication [22], set by
    # Baseline+.  Only MeshNetwork.broadcast/multicast read it, and no
    # simulated path calls them (coherence sends unicasts), so it changes
    # no result.
    tree_broadcast: bool = False

    def validate(self) -> None:
        if self.hop_latency <= 0:
            raise ConfigurationError("hop latency must be positive")
        if self.link_bits <= 0:
            raise ConfigurationError("link width must be positive")

    def cycles_per_flit(self, message_bits: int) -> int:
        """Number of flits (and serialization cycles) for a message."""
        return max(1, -(-message_bits // self.link_bits))


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory parameters (Table 1)."""

    controllers: int = 4
    dram_round_trip: int = 110

    def validate(self) -> None:
        if self.controllers <= 0:
            raise ConfigurationError("need at least one memory controller")
        if self.dram_round_trip <= 0:
            raise ConfigurationError("DRAM round trip must be positive")


@dataclass(frozen=True)
class BroadcastMemoryConfig:
    """Per-core Broadcast Memory parameters (Table 1 + Section 4.2)."""

    size_kb: int = 16
    round_trip: int = 2          # cycles (Table 1: "2-cycle RT")
    entry_bits: int = 64
    address_bits: int = 11       # 16KB of 64-bit entries -> 2048 entries -> 11 bits
    pid_bits: int = 8

    def validate(self) -> None:
        if self.size_kb <= 0 or self.round_trip <= 0:
            raise ConfigurationError("BM size and latency must be positive")
        if self.entry_bits not in (32, 64):
            raise ConfigurationError("BM entries are 32 or 64 bits wide")
        if self.pid_bits < 1:
            raise ConfigurationError("BM PID tags need at least one bit")
        if self.num_entries > (1 << self.address_bits):
            raise ConfigurationError(
                "address_bits too small to address every BM entry "
                f"({self.num_entries} entries, {self.address_bits} bits)"
            )

    @property
    def num_entries(self) -> int:
        return (self.size_kb * 1024 * 8) // self.entry_bits


@dataclass(frozen=True)
class DataChannelConfig:
    """Wireless Data channel parameters (Section 4.1).

    A transfer carries a 64-bit datum, an 11-bit BM address, a Bulk bit and a
    Tone bit (77 bits total) in 5 slots of 1 ns; the second slot is used for
    collision detection, so a collision only wastes 2 cycles.  A bulk message
    carries four 64-bit words and takes 15 cycles.  The RF figures of
    Table 4 (bandwidth, carrier, area, power) live in
    :mod:`repro.wireless.link_budget`.
    """

    slot_cycles: int = 1
    message_cycles: int = 5
    collision_detect_cycle: int = 2
    bulk_message_cycles: int = 15
    payload_bits: int = 64
    address_bits: int = 11
    header_bits: int = 2          # Bulk bit + Tone bit

    def validate(self) -> None:
        if self.message_cycles <= self.collision_detect_cycle:
            raise ConfigurationError("collision detection must happen before message end")
        if self.bulk_message_cycles < self.message_cycles:
            raise ConfigurationError("bulk messages cannot be shorter than single messages")

    @property
    def message_bits(self) -> int:
        return self.payload_bits + self.address_bits + self.header_bits

    @property
    def collision_penalty_cycles(self) -> int:
        """Cycles lost on the channel when a collision is detected."""
        return self.collision_detect_cycle

    @property
    def required_bandwidth_gbps(self) -> float:
        """Bandwidth implied by sending message_bits in (message_cycles-1) ns."""
        return self.message_bits / (self.message_cycles - 1)


@dataclass(frozen=True)
class ToneChannelConfig:
    """Wireless Tone channel parameters (Section 4.1 / 5.1)."""

    enabled: bool = True
    slot_cycles: int = 1
    table_entries: int = 64      # AllocB / ActiveB size

    def validate(self) -> None:
        if self.slot_cycles <= 0:
            raise ConfigurationError("tone slot must be at least one cycle")
        if self.table_entries <= 0:
            raise ConfigurationError("tone tables need at least one entry")


@dataclass(frozen=True)
class BackoffConfig:
    """Collision-resolution policy for the Data channel (Section 5.3).

    ``broadcast_aware`` is the default: exponential growth on collisions with
    contention-estimate decay driven by observed successes, which the paper
    notes is easy to build on a broadcast medium.  Plain ``exponential``
    (Ethernet-style) and ``fixed`` windows are available as ablations.
    """

    kind: str = "broadcast_aware"   # "broadcast_aware", "exponential" or "fixed"
    max_exponent: int = 10
    fixed_window: int = 8

    def validate(self) -> None:
        if self.kind not in ("broadcast_aware", "exponential", "fixed"):
            raise ConfigurationError(f"unknown backoff kind {self.kind!r}")
        if self.max_exponent < 1:
            raise ConfigurationError("max_exponent must be >= 1")
        if self.fixed_window < 1:
            raise ConfigurationError("fixed_window must be >= 1")


@dataclass(frozen=True)
class SyncConfig:
    """Which software synchronization algorithms a configuration uses (Table 2)."""

    lock_kind: str = "cas_spin"        # cas_spin | mcs | wireless
    barrier_kind: str = "centralized"  # centralized | tournament | wireless | tone
    reduction_kind: str = "lock"       # lock | wireless

    _LOCKS = ("cas_spin", "mcs", "wireless")
    _BARRIERS = ("centralized", "tournament", "wireless", "tone")
    _REDUCTIONS = ("lock", "wireless")

    def validate(self) -> None:
        if self.lock_kind not in self._LOCKS:
            raise ConfigurationError(f"unknown lock kind {self.lock_kind!r}")
        if self.barrier_kind not in self._BARRIERS:
            raise ConfigurationError(f"unknown barrier kind {self.barrier_kind!r}")
        if self.reduction_kind not in self._REDUCTIONS:
            raise ConfigurationError(f"unknown reduction kind {self.reduction_kind!r}")


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated manycore."""

    name: str = "wisync"
    num_cores: int = 64
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    wisync_enabled: bool = True
    bm: BroadcastMemoryConfig = field(default_factory=BroadcastMemoryConfig)
    data_channel: DataChannelConfig = field(default_factory=DataChannelConfig)
    tone_channel: ToneChannelConfig = field(default_factory=ToneChannelConfig)
    backoff: BackoffConfig = field(default_factory=BackoffConfig)
    sync: SyncConfig = field(default_factory=SyncConfig)
    seed: int = 2016

    def validate(self) -> "MachineConfig":
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")
        self.core.validate()
        self.cache.validate()
        self.noc.validate()
        self.memory.validate()
        self.bm.validate()
        self.data_channel.validate()
        self.tone_channel.validate()
        self.backoff.validate()
        self.sync.validate()
        if not self.wisync_enabled:
            if self.sync.lock_kind == "wireless" or self.sync.barrier_kind in ("wireless", "tone"):
                raise ConfigurationError(
                    f"configuration {self.name!r} uses wireless synchronization "
                    "but has no wireless hardware"
                )
        if self.sync.barrier_kind == "tone" and not self.tone_channel.enabled:
            raise ConfigurationError(
                f"configuration {self.name!r} uses tone barriers but the tone channel is disabled"
            )
        return self

    def replace(self, **kwargs) -> "MachineConfig":
        return replace(self, **kwargs)


def default_machine_config(num_cores: int = 64) -> MachineConfig:
    """The paper's default WiSync configuration (Table 1) for ``num_cores``."""
    return MachineConfig(num_cores=num_cores).validate()

"""Tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    BackoffConfig,
    BroadcastMemoryConfig,
    CacheConfig,
    DataChannelConfig,
    MachineConfig,
    MemoryConfig,
    NocConfig,
    SyncConfig,
    ToneChannelConfig,
    default_machine_config,
)
from repro.errors import ConfigurationError
from repro.machine.configs import (
    baseline,
    baseline_plus,
    config_by_name,
    paper_configurations,
    sensitivity_variants,
    wisync,
    wisync_not,
)


class TestCacheConfig:
    def test_default_l1_geometry_matches_table1(self):
        cache = CacheConfig()
        assert cache.l1_size_kb == 32
        assert cache.l1_assoc == 2
        assert cache.l1_latency == 2
        assert cache.line_bytes == 64

    def test_l1_sets_derived_from_size(self):
        cache = CacheConfig()
        assert cache.l1_sets == 32 * 1024 // (64 * 2)

    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(line_bytes=48).validate()

    @pytest.mark.parametrize("field", ["l1_size_kb", "l1_assoc", "l1_latency", "l2_latency"])
    def test_rejects_non_positive_fields(self, field):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(CacheConfig(), **{field: 0}).validate()


class TestBroadcastMemoryConfig:
    def test_default_matches_table1(self):
        bm = BroadcastMemoryConfig()
        assert bm.size_kb == 16
        assert bm.round_trip == 2
        assert bm.entry_bits == 64

    def test_num_entries_is_2048_for_16kb(self):
        assert BroadcastMemoryConfig().num_entries == 2048

    def test_address_bits_cover_all_entries(self):
        bm = BroadcastMemoryConfig()
        assert bm.num_entries <= (1 << bm.address_bits)

    def test_too_few_address_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            BroadcastMemoryConfig(size_kb=64, address_bits=11).validate()

    def test_unusual_entry_width_rejected(self):
        with pytest.raises(ConfigurationError):
            BroadcastMemoryConfig(entry_bits=128).validate()

    @pytest.mark.parametrize("pid_bits", [0, -1])
    def test_pid_tags_need_a_bit(self, pid_bits):
        with pytest.raises(ConfigurationError, match="PID"):
            BroadcastMemoryConfig(pid_bits=pid_bits).validate()


class TestDataChannelConfig:
    def test_message_format_is_77_bits(self):
        channel = DataChannelConfig()
        assert channel.message_bits == 64 + 11 + 2

    def test_required_bandwidth_about_19_gbps(self):
        channel = DataChannelConfig()
        assert 19.0 <= channel.required_bandwidth_gbps <= 19.5

    def test_collision_penalty_is_two_cycles(self):
        assert DataChannelConfig().collision_penalty_cycles == 2

    def test_bulk_shorter_than_four_singles(self):
        channel = DataChannelConfig()
        assert channel.bulk_message_cycles < 4 * channel.message_cycles

    def test_collision_detect_must_precede_end(self):
        with pytest.raises(ConfigurationError):
            DataChannelConfig(message_cycles=2, collision_detect_cycle=3).validate()

    def test_bulk_cannot_be_shorter_than_single(self):
        with pytest.raises(ConfigurationError):
            DataChannelConfig(bulk_message_cycles=3).validate()


class TestNocConfig:
    def test_default_hop_latency(self):
        assert NocConfig().hop_latency == 4

    def test_cycles_per_flit(self):
        noc = NocConfig(link_bits=128)
        assert noc.cycles_per_flit(64) == 1
        assert noc.cycles_per_flit(128) == 1
        assert noc.cycles_per_flit(512) == 4

    def test_rejects_zero_hop_latency(self):
        with pytest.raises(ConfigurationError):
            NocConfig(hop_latency=0).validate()


class TestSyncAndBackoffConfig:
    def test_unknown_lock_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncConfig(lock_kind="ticket").validate()

    def test_unknown_barrier_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SyncConfig(barrier_kind="dissemination").validate()

    def test_unknown_backoff_rejected(self):
        with pytest.raises(ConfigurationError):
            BackoffConfig(kind="aloha").validate()

    @pytest.mark.parametrize("kind", ["broadcast_aware", "exponential", "fixed"])
    def test_known_backoff_kinds_accepted(self, kind):
        BackoffConfig(kind=kind).validate()


class TestMachineConfig:
    def test_default_is_valid(self):
        default_machine_config().validate()

    def test_wireless_sync_requires_wireless_hardware(self):
        bad = MachineConfig(
            wisync_enabled=False,
            sync=SyncConfig(lock_kind="wireless", barrier_kind="centralized"),
            tone_channel=ToneChannelConfig(enabled=False),
        )
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_tone_barrier_requires_tone_channel(self):
        bad = MachineConfig(
            tone_channel=ToneChannelConfig(enabled=False),
            sync=SyncConfig(lock_kind="wireless", barrier_kind="tone"),
        )
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(num_cores=0).validate()

    def test_memory_config_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(controllers=0).validate()


class TestPaperConfigurations:
    def test_four_configurations(self):
        configs = paper_configurations(num_cores=16)
        assert [c.name for c in configs] == ["baseline", "baseline+", "wisync-not", "wisync"]

    def test_baseline_has_no_wireless(self):
        config = baseline(16)
        assert not config.wisync_enabled
        assert config.sync.barrier_kind == "centralized"
        assert config.sync.lock_kind == "cas_spin"

    def test_baseline_plus_uses_tree_mcs_tournament(self):
        config = baseline_plus(16)
        assert config.noc.tree_broadcast
        assert config.sync.lock_kind == "mcs"
        assert config.sync.barrier_kind == "tournament"

    def test_wisync_not_has_no_tone_channel(self):
        config = wisync_not(16)
        assert config.wisync_enabled
        assert not config.tone_channel.enabled
        assert config.sync.barrier_kind == "wireless"

    def test_wisync_uses_tone_barriers(self):
        config = wisync(16)
        assert config.tone_channel.enabled
        assert config.sync.barrier_kind == "tone"

    @pytest.mark.parametrize("name", ["baseline", "baseline+", "wisync-not", "wisync", "WiSync"])
    def test_config_by_name(self, name):
        assert config_by_name(name, 16).num_cores == 16

    def test_config_by_name_unknown(self):
        with pytest.raises(ConfigurationError):
            config_by_name("tls-sync")

    def test_sensitivity_variants_match_table6(self):
        variants = sensitivity_variants(wisync(16))
        assert set(variants) == {"Default", "SlowNet", "SlowNet+L2", "FastNet", "SlowBMEM"}
        assert variants["SlowNet"].noc.hop_latency == 6
        assert variants["SlowNet+L2"].cache.l2_latency == 12
        assert variants["FastNet"].noc.hop_latency == 2
        assert variants["SlowBMEM"].bm.round_trip == 4
        assert variants["Default"].noc.hop_latency == 4

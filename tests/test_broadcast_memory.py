"""Tests for the Broadcast Memory: contents, allocation, and protection."""

import pytest

from repro.config import BroadcastMemoryConfig
from repro.core.broadcast_memory import BroadcastMemory
from repro.errors import AllocationError, MemoryError_, ProtectionError


@pytest.fixture
def bm_config():
    return BroadcastMemoryConfig()


@pytest.fixture
def bm(bm_config):
    return BroadcastMemory(bm_config)


class TestBroadcastMemory:
    def test_entries_default_to_zero(self, bm):
        assert bm.read(0) == 0
        assert bm.read(2047) == 0

    def test_out_of_range_address_rejected(self, bm):
        with pytest.raises(MemoryError_):
            bm.read(2048)
        with pytest.raises(MemoryError_):
            bm.read(-1)

    def test_write_and_read_back(self, bm):
        bm.write(5, 1234)
        assert bm.read(5) == 1234

    def test_values_truncate_to_entry_width(self, bm):
        bm.write(1, 1 << 70)
        assert bm.read(1) < (1 << 64)

    def test_allocation_tags_pid(self, bm):
        allocation = bm.allocate(pid=7)
        assert bm.owner_pid(allocation.base_addr) == 7
        assert bm.read(allocation.base_addr, pid=7) == 0

    def test_double_allocation_rejected(self, bm):
        first = bm.allocate(pid=7, words=2)
        bm.write(first.base_addr, 5)
        second = bm.allocate(pid=8, words=2)
        assert second.base_addr == first.base_addr + 2
        assert bm.owner_pid(first.base_addr) == 7
        assert bm.read(first.base_addr) == 5

    def test_pid_mismatch_is_protection_violation(self, bm):
        addr = bm.allocate(pid=7).base_addr
        with pytest.raises(ProtectionError):
            bm.read(addr, pid=8)
        with pytest.raises(ProtectionError):
            bm.write(addr, 1, pid=8)

    def test_access_to_unallocated_entry_with_pid_rejected(self, bm):
        with pytest.raises(ProtectionError):
            bm.read(9, pid=1)

    def test_free_requires_owner(self, bm):
        addr = bm.allocate(pid=1).base_addr
        with pytest.raises(ProtectionError):
            bm.free(pid=2, base_addr=addr)
        bm.free(pid=1, base_addr=addr)
        assert bm.owner_pid(addr) is None

    def test_free_unallocated_rejected(self, bm):
        with pytest.raises(MemoryError_):
            bm.free(pid=1, base_addr=10)

    def test_toggle_alternates_zero_nonzero(self, bm):
        assert bm.toggle(2) == 1
        assert bm.toggle(2) == 0
        bm.write(2, 55)
        assert bm.toggle(2) == 0

    def test_tone_capability_flag(self, bm):
        allocation = bm.allocate(pid=1, words=2, tone_capable=True)
        assert bm.is_tone_capable(allocation.base_addr)
        assert not bm.is_tone_capable(allocation.base_addr + 1)

    def test_allocated_count(self, bm):
        bm.allocate(pid=1, words=2)
        assert bm.allocated_count() == 2
        assert list(bm.allocated_entries()) == [0, 1]


class TestAllocation:
    def test_sequential_allocation(self, bm):
        first = bm.allocate(pid=1, words=2)
        second = bm.allocate(pid=1, words=3)
        assert first.base_addr == 0 and first.words == 2
        assert second.base_addr == 2
        assert bm.allocated_count() == 5

    def test_first_fit_reuses_freed_space(self, bm):
        first = bm.allocate(pid=1, words=4)
        bm.allocate(pid=1, words=4)
        bm.free(pid=1, base_addr=first.base_addr, words=4)
        third = bm.allocate(pid=1, words=2)
        assert third.base_addr == first.base_addr

    def test_spill_when_full(self):
        config = BroadcastMemoryConfig(size_kb=4, address_bits=11)
        bm = BroadcastMemory(config)
        bm.allocate(pid=1, words=config.num_entries)
        spilled = bm.allocate(pid=1, words=2)
        assert spilled.spilled
        assert spilled.base_addr == bm.spill_base == config.num_entries
        assert bm.allocate(pid=1).base_addr == bm.spill_base + 2
        bm.free(pid=2, base_addr=spilled.base_addr, words=2)
        assert bm.allocated_count() == config.num_entries

    def test_free_requires_ownership(self, bm):
        first = bm.allocate(pid=1)
        bm.allocate(pid=2)
        with pytest.raises(ProtectionError):
            bm.free(pid=1, base_addr=first.base_addr, words=2)
        assert [bm.owner_pid(addr) for addr in (0, 1)] == [1, 2]
        assert bm.allocated_count() == 2
        assert bm.allocate(pid=3).base_addr == 2

    def test_zero_word_allocation_rejected(self, bm):
        with pytest.raises(AllocationError):
            bm.allocate(pid=1, words=0)

    def test_first_fit_skips_a_gap_too_small(self, bm):
        bm.allocate(pid=1, words=2)
        middle = bm.allocate(pid=1, words=2)
        bm.allocate(pid=1, words=2)
        bm.free(pid=1, base_addr=middle.base_addr, words=2)
        assert bm.allocate(pid=2, words=3).base_addr == 6
        assert bm.allocate(pid=2, words=2).base_addr == middle.base_addr

    def test_spills_only_when_no_free_run_fits(self):
        config = BroadcastMemoryConfig(size_kb=4, address_bits=11)
        bm = BroadcastMemory(config)
        bm.allocate(pid=1, words=config.num_entries - 1)
        assert bm.allocate(pid=1, words=2).spilled
        last = bm.allocate(pid=1)
        assert not last.spilled and last.base_addr == config.num_entries - 1
        assert bm.allocated_count() == config.num_entries

    def test_free_resets_the_entries(self, bm):
        allocation = bm.allocate(pid=1, words=2, tone_capable=True)
        bm.write(allocation.base_addr, 5)
        bm.free(pid=1, base_addr=allocation.base_addr, words=2)
        assert bm.owner_pid(allocation.base_addr) is None
        assert not bm.is_tone_capable(allocation.base_addr)
        again = bm.allocate(pid=2)
        assert again.base_addr == allocation.base_addr
        assert bm.read(again.base_addr, pid=2) == 0

    def test_free_with_an_unallocated_tail_changes_nothing(self, bm):
        allocation = bm.allocate(pid=1, words=2)
        with pytest.raises(MemoryError_, match="entry 2 is not allocated"):
            bm.free(pid=1, base_addr=allocation.base_addr, words=3)
        assert list(bm.allocated_entries()) == [0, 1]
        assert bm.allocate(pid=1).base_addr == 2

    def test_free_past_the_last_entry_changes_nothing(self):
        config = BroadcastMemoryConfig(size_kb=4, address_bits=11)
        bm = BroadcastMemory(config)
        last = config.num_entries - 1
        bm.allocate(pid=1, words=config.num_entries)
        with pytest.raises(MemoryError_, match="out of range"):
            bm.free(pid=1, base_addr=last, words=2)
        assert bm.owner_pid(last) == 1
        assert bm.allocated_count() == config.num_entries

    @pytest.mark.parametrize("words", [0, -1])
    def test_empty_free_rejected(self, bm, words):
        allocation = bm.allocate(pid=1)
        with pytest.raises(AllocationError):
            bm.free(pid=1, base_addr=allocation.base_addr, words=words)
        assert bm.owner_pid(allocation.base_addr) == 1

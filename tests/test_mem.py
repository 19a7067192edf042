"""Tests for the cache hierarchy, directory coherence, and DRAM models."""

from dataclasses import replace

import pytest

from repro.config import CacheConfig, MemoryConfig, default_machine_config
from repro.errors import ConfigurationError, MemoryError_
from repro.isa.operations import RmwKind
from repro.mem.address import AddressMap
from repro.mem.dram import DramModel
from repro.mem.hierarchy import MemorySystem, apply_rmw
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class TestAddressMap:
    def _map(self, cores=8):
        return AddressMap(CacheConfig(), MemoryConfig(), cores)

    def test_line_of_groups_words(self):
        amap = self._map()
        assert amap.line_of(0) == amap.line_of(63)
        assert amap.line_of(64) == amap.line_of(0) + 1

    def test_word_alignment(self):
        amap = self._map()
        assert amap.word_of(13) == 8
        assert amap.word_of(16) == 16

    def test_home_bank_interleaves_across_cores(self):
        amap = self._map(cores=4)
        homes = {amap.home_bank(line * 64) for line in range(16)}
        assert homes == {0, 1, 2, 3}

    def test_same_line_check(self):
        amap = self._map()
        assert amap.same_line(0, 56)
        assert not amap.same_line(0, 64)

    def test_memory_controller_range(self):
        amap = self._map()
        for addr in range(0, 4096, 64):
            assert 0 <= amap.memory_controller(addr) < 4


class TestDram:
    def test_round_trip_latency(self):
        dram = DramModel(MemoryConfig(), StatsRegistry())
        assert dram.access(0, 0) == 110

    def test_controller_serialization(self):
        dram = DramModel(MemoryConfig(), StatsRegistry())
        first = dram.access(0, 1)
        second = dram.access(0, 1)
        assert second == first + DramModel.CONTROLLER_OCCUPANCY

    def test_different_controllers_do_not_serialize(self):
        dram = DramModel(MemoryConfig(), StatsRegistry())
        assert dram.access(0, 0) == dram.access(0, 1)


def make_memory(cores=8, **cache):
    """A memory system; ``cache`` overrides :class:`CacheConfig` fields."""
    config = default_machine_config(cores)
    config = replace(config, cache=replace(config.cache, **cache))
    sim = Simulator()
    stats = StatsRegistry()
    mesh = MeshNetwork(MeshTopology.square_for(cores), config.noc, stats)
    return sim, MemorySystem(sim, config, mesh, stats)


#: A 1 KB, 2-way L1 has 8 sets: lines 512 bytes apart share a set.
SMALL_L1 = {"l1_size_kb": 1, "l1_assoc": 2}
SAME_SET = 512


def holds(mem, core, addr):
    """Whether ``core``'s L1 holds ``addr``'s line (LRU order untouched)."""
    line = addr // 64
    return line in mem._l1_tags[core].get(line % mem._l1_sets, ())


def entry_of(mem, addr):
    """The directory entry of ``addr``'s line, or None before its first miss."""
    return mem._directory.get(addr // 64)


def misses(mem):
    return mem.stats.counter_value("mem/read_misses") + mem.stats.counter_value(
        "mem/write_misses"
    )


class TestL1Tags:
    def test_miss_then_hit(self):
        sim, mem = make_memory()
        _, first = mem.read(0, 0x1000)
        _, second = mem.read(0, 0x1000)
        assert first > sim.now + 2
        assert second == sim.now + 2
        assert mem.stats.counter_value("mem/read_misses") == 1

    def test_lru_eviction(self):
        sim, mem = make_memory(**SMALL_L1)
        a, b, c = 0, SAME_SET, 2 * SAME_SET
        mem.read(0, a)
        mem.read(0, b)
        mem.read(0, a)           # a becomes MRU
        mem.read(0, c)           # evicts b, the LRU way
        assert holds(mem, 0, a) and holds(mem, 0, c) and not holds(mem, 0, b)
        assert 0 not in entry_of(mem, b).sharers
        before = misses(mem)
        mem.read(0, a)
        assert misses(mem) == before
        mem.read(0, b)
        assert misses(mem) == before + 1

    def test_upgrade_of_resident_line_evicts_nothing(self):
        sim, mem = make_memory(**SMALL_L1)
        a, b, c = 0, SAME_SET, 2 * SAME_SET
        mem.read(0, a)
        mem.read(0, b)
        mem.write(0, a, 1)       # upgrade refills a in place, as the MRU way
        assert holds(mem, 0, a) and holds(mem, 0, b)
        mem.read(0, c)           # so b, not a, is the victim
        assert holds(mem, 0, a) and not holds(mem, 0, b)
        assert entry_of(mem, a).owner == 0

    def test_invalidated_copy_misses_again(self):
        sim, mem = make_memory()
        mem.read(0, 0x1000)
        mem.write(1, 0x1000, 7)
        assert not holds(mem, 0, 0x1000)
        before = misses(mem)
        value, _ = mem.read(0, 0x1000)
        assert value == 7
        assert misses(mem) == before + 1

    def test_occupancy_never_exceeds_capacity(self):
        sim, mem = make_memory(**SMALL_L1)
        for line in range(40):
            mem.read(0, line * 64)
        resident = [line for tags in mem._l1_tags[0].values() for line in tags]
        assert len(resident) == 8 * 2
        assert sorted(resident) == list(range(24, 40))
        assert all(len(tags) <= 2 for tags in mem._l1_tags[0].values())

    def test_invalid_geometry_rejected(self):
        # 1 KB of 64-byte lines cannot fill one 32-way set.
        with pytest.raises(ConfigurationError):
            make_memory(l1_size_kb=1, l1_assoc=32)


class TestDirectoryEntries:
    def test_read_records_a_sharer(self):
        sim, mem = make_memory()
        assert entry_of(mem, 64) is None
        mem.read(3, 64)
        entry = entry_of(mem, 64)
        assert entry.owner is None
        assert entry.sharers == {3}

    def test_write_invalidates_the_other_sharers(self):
        sim, mem = make_memory()
        for core in (0, 1, 2):
            mem.read(core, 64)
        mem.write(2, 64, 1)
        assert mem.stats.counter_value("mem/invalidations") == 2
        assert not holds(mem, 0, 64) and not holds(mem, 1, 64)
        assert holds(mem, 2, 64)

    def test_write_takes_exclusive_ownership(self):
        sim, mem = make_memory()
        mem.read(0, 64)
        mem.write(5, 64, 1)
        entry = entry_of(mem, 64)
        assert entry.owner == 5
        assert entry.sharers == set()

    def test_read_after_write_downgrades_owner(self):
        sim, mem = make_memory()
        mem.write(5, 64, 1)
        mem.read(2, 64)
        entry = entry_of(mem, 64)
        assert entry.owner is None
        assert entry.sharers == {2, 5}
        assert mem.stats.counter_value("mem/owner_forwards") == 1

    def test_eviction_clears_owner(self):
        sim, mem = make_memory(**SMALL_L1)
        mem.write(5, 0, 1)
        mem.read(5, SAME_SET)
        mem.read(5, 2 * SAME_SET)   # evicts the owned line
        entry = entry_of(mem, 0)
        assert entry.owner is None and entry.sharers == set()
        writes = mem.stats.counter_value("mem/write_misses")
        mem.write(5, 0, 2)
        assert mem.stats.counter_value("mem/write_misses") == writes + 1

    def test_sharer_count(self):
        sim, mem = make_memory()
        mem.read(0, 9 * 64)
        mem.read(1, 9 * 64)
        assert len(entry_of(mem, 9 * 64).sharers) == 2

    def test_spin_wait_holds_a_shared_copy(self):
        sim, mem = make_memory()
        mem.write(4, 64, 0)
        mem.wait_until(1, 64, lambda v: v == 1, print)
        entry = entry_of(mem, 64)
        assert entry.owner is None and entry.sharers == {1, 4}
        assert holds(mem, 1, 64)


class TestMemorySystem:
    def test_first_read_misses_to_dram(self):
        sim, mem = make_memory()
        value, completion = mem.read(0, 0x1000)
        assert value == 0
        assert completion >= 110

    def test_second_read_is_l1_hit(self):
        sim, mem = make_memory()
        mem.read(0, 0x1000)
        _, completion = mem.read(0, 0x1000)
        assert completion == sim.now + 2

    def test_write_then_read_returns_value(self):
        sim, mem = make_memory()
        mem.write(0, 0x2000, 77)
        value, _ = mem.read(0, 0x2000)
        assert value == 77
        assert mem.peek(0x2000) == 77

    def test_write_hit_after_ownership(self):
        sim, mem = make_memory()
        mem.write(0, 0x2000, 1)
        completion = mem.write(0, 0x2000, 2)
        assert completion == sim.now + 2

    def test_remote_read_after_write_forwards_from_owner(self):
        sim, mem = make_memory()
        mem.write(0, 0x3000, 5)
        value, completion = mem.read(1, 0x3000)
        assert value == 5
        assert completion > 2
        assert mem.stats.counter_value("mem/owner_forwards") >= 1

    def test_write_invalidates_readers(self):
        sim, mem = make_memory()
        for core in range(4):
            mem.read(core, 0x4000)
        mem.write(5, 0x4000, 9)
        assert mem.stats.counter_value("mem/invalidations") >= 4
        # The previous readers lost their copies.
        for core in range(4):
            assert not holds(mem, core, 0x4000)

    @pytest.mark.parametrize(
        "kind,operand,expected,old,new,success",
        [
            (RmwKind.TEST_AND_SET, 0, 0, 0, 1, True),
            (RmwKind.FETCH_AND_INC, 0, 0, 4, 5, True),
            (RmwKind.FETCH_AND_ADD, 10, 0, 4, 14, True),
            (RmwKind.SWAP, 99, 0, 4, 99, True),
            (RmwKind.COMPARE_AND_SWAP, 7, 4, 4, 7, True),
            (RmwKind.COMPARE_AND_SWAP, 7, 3, 4, 4, False),
        ],
    )
    def test_apply_rmw_semantics(self, kind, operand, expected, old, new, success):
        result_new, result_success = apply_rmw(kind, old, operand, expected)
        assert result_new == new
        assert result_success == success

    def test_atomic_cas_success_and_failure(self):
        sim, mem = make_memory()
        mem.poke(0x5000, 3)
        old, success, _ = mem.atomic(0, 0x5000, RmwKind.COMPARE_AND_SWAP, operand=9, expected=3)
        assert (old, success) == (3, True)
        assert mem.peek(0x5000) == 9
        old, success, _ = mem.atomic(1, 0x5000, RmwKind.COMPARE_AND_SWAP, operand=5, expected=3)
        assert (old, success) == (9, False)
        assert mem.peek(0x5000) == 9

    def test_contended_atomics_serialize_at_line(self):
        sim, mem = make_memory()
        mem.poke(0x6000, 0)
        completions = [mem.atomic(core, 0x6000, RmwKind.FETCH_AND_INC)[2] for core in range(6)]
        assert completions == sorted(completions)
        assert len(set(completions)) == len(completions)
        assert mem.peek(0x6000) == 6

    def test_wait_until_already_satisfied(self):
        sim, mem = make_memory()
        mem.poke(0x7000, 1)
        woken = []
        mem.wait_until(0, 0x7000, lambda v: v == 1, woken.append)
        sim.run()
        assert woken == [1]

    def test_wait_until_woken_by_write(self):
        sim, mem = make_memory()
        woken = []
        mem.wait_until(0, 0x8000, lambda v: v == 5, woken.append)
        assert mem.waiter_count(0x8000) == 1
        mem.write(1, 0x8000, 4)   # does not satisfy
        mem.write(1, 0x8000, 5)   # satisfies
        sim.run()
        assert woken == [5]
        assert mem.waiter_count(0x8000) == 0

    def test_many_waiters_wake_serialized(self):
        sim, mem = make_memory()
        wake_times = {}
        for core in range(6):
            mem.wait_until(core, 0x9000, lambda v: v == 1,
                           lambda v, c=core: wake_times.setdefault(c, sim.now))
        mem.write(7, 0x9000, 1)
        sim.run()
        assert len(wake_times) == 6
        assert len(set(wake_times.values())) > 1  # refills serialize, not simultaneous

    # A negative core would index the mesh's per-node tables from the end.
    @pytest.mark.parametrize("core", [-1, 4, 9])
    @pytest.mark.parametrize(
        "method,args",
        [
            ("read", (0x100,)),
            ("write", (0x100, 1)),
            ("atomic", (0x100, RmwKind.SWAP)),
            ("wait_until", (0x100, bool, print)),
        ],
    )
    def test_out_of_range_core_rejected(self, method, args, core):
        sim, mem = make_memory(cores=4)
        with pytest.raises(MemoryError_, match="out of range"):
            getattr(mem, method)(core, *args)

"""Property-based tests (hypothesis) on core data structures and invariants."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    BroadcastMemoryConfig,
    CacheConfig,
    MemoryConfig,
    default_machine_config,
)
from repro.core.broadcast_memory import BroadcastMemory
from repro.errors import MemoryError_, ProtectionError
from repro.mem.address import AddressMap
from repro.mem.hierarchy import MemorySystem, apply_rmw
from repro.isa.operations import RmwKind
from repro.noc.mesh import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.wireless.backoff import BroadcastAwareBackoff, ExponentialBackoff

COMMON_SETTINGS = settings(max_examples=50, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@COMMON_SETTINGS
@given(st.integers(min_value=1, max_value=300))
def test_mesh_fits_all_nodes_and_distances_symmetric(num_nodes):
    topo = MeshTopology.square_for(num_nodes)
    assert topo.width * topo.height >= num_nodes
    first, last = 0, num_nodes - 1
    assert topo.hop_distance(first, last) == topo.hop_distance(last, first)
    assert topo.hop_distance(first, first) == 0


@COMMON_SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=2 ** 32), min_size=1, max_size=30))
def test_event_queue_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


#: One cached-memory access: (kind, core, line).  A 1 KB, 2-way L1 has 8
#: sets, so the 24 lines put three in each set and evict one another.
_MEM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "atomic", "wait"]),
        st.integers(0, 7),
        st.integers(0, 23),
    ),
    min_size=1, max_size=200,
)


def _assert_l1_agrees_with_directory(mem):
    """Each L1 holds a line exactly when the directory lists that core as a
    sharer or the owner; an owned line has no sharers; no set overflows."""
    holders = {}
    for core, sets in enumerate(mem._l1_tags):
        for tags in sets.values():
            assert len(tags) <= mem._l1_assoc
            assert len(set(tags)) == len(tags)
            for line in tags:
                holders.setdefault(line, set()).add(core)
    for line, entry in mem._directory.items():
        listed = set(entry.sharers)
        if entry.owner is not None:
            assert not entry.sharers
            listed.add(entry.owner)
        assert holders.pop(line, set()) == listed
    assert not holders


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_MEM_OPS)
def test_l1_tags_and_directory_agree_under_evictions(operations):
    config = default_machine_config(8)
    config = replace(config, cache=replace(config.cache, l1_size_kb=1, l1_assoc=2))
    sim = Simulator()
    mesh = MeshNetwork(MeshTopology.square_for(8), config.noc)
    mem = MemorySystem(sim, config, mesh, mesh.stats)
    for index, (kind, core, line) in enumerate(operations):
        addr = line * 64
        if kind == "read":
            mem.read(core, addr)
        elif kind == "write":
            mem.write(core, addr, index)
        elif kind == "atomic":
            mem.atomic(core, addr, RmwKind.FETCH_AND_INC)
        else:
            mem.wait_until(core, addr, lambda value: value % 3 == 0, lambda value: None)
        _assert_l1_agrees_with_directory(mem)


@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=2 ** 63))
def test_rmw_semantics_properties(old, operand, expected):
    new, success = apply_rmw(RmwKind.FETCH_AND_ADD, old, operand, expected)
    assert new == old + operand and success
    new, success = apply_rmw(RmwKind.COMPARE_AND_SWAP, old, operand, expected)
    if old == expected:
        assert success and new == operand
    else:
        assert not success and new == old


#: Allocate ``words`` for a pid, or free (with a pid, possibly not the
#: owner) an earlier allocation's range, possibly reaching ``extra`` entries
#: past its end.
_BM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 3), st.integers(1, 48)),
        st.tuples(st.just("free"), st.integers(1, 3), st.integers(0, 1000), st.integers(0, 2)),
    ),
    min_size=1, max_size=60,
)


def _first_fit(owners, words, capacity):
    for base in range(capacity - words + 1):
        if not any(addr in owners for addr in range(base, base + words)):
            return base
    return None


def _expected_free_error(owners, pid, base, words, capacity):
    for addr in range(base, base + words):
        if addr >= capacity or addr not in owners:
            return MemoryError_
        if owners[addr] != pid:
            return ProtectionError
    return None


@COMMON_SETTINGS
@given(_BM_OPS)
def test_allocator_never_double_allocates(ops):
    """Interleaved allocations and frees by several pids against a model of
    the owner tags: first fit, no entry handed out twice, and a rejected free
    changes nothing."""
    bm = BroadcastMemory(BroadcastMemoryConfig(size_kb=1))
    capacity = bm.spill_base
    owners = {}  # addr -> pid, for every live entry
    made = []
    for op in ops:
        if op[0] == "alloc":
            _, pid, words = op
            expected = _first_fit(owners, words, capacity)
            live = set(bm.allocated_entries())
            allocation = bm.allocate(pid=pid, words=words)
            made.append(allocation)
            assert allocation.spilled == (expected is None)
            if expected is not None:
                run = range(allocation.base_addr, allocation.base_addr + words)
                assert live.isdisjoint(run)
                assert allocation.base_addr == expected
                owners.update((addr, pid) for addr in run)
        elif made:
            _, pid, index, extra = op
            target = made[index % len(made)]
            base, words = target.base_addr, target.words + extra
            error = None if target.spilled else _expected_free_error(
                owners, pid, base, words, capacity
            )
            if error is None:
                bm.free(pid=pid, base_addr=base, words=words)
                if not target.spilled:
                    for addr in range(base, base + words):
                        del owners[addr]
            else:
                with pytest.raises(MemoryError_) as raised:
                    bm.free(pid=pid, base_addr=base, words=words)
                assert type(raised.value) is error
        assert bm.allocated_count() == len(owners)
        assert {addr: bm.owner_pid(addr) for addr in bm.allocated_entries()} == owners


@COMMON_SETTINGS
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.integers(min_value=0, max_value=2 ** 64 - 1)),
                min_size=1, max_size=50))
def test_broadcast_memory_read_write_roundtrip(writes):
    bm = BroadcastMemory(BroadcastMemoryConfig())
    shadow = {}
    for addr, value in writes:
        bm.write(addr, value)
        shadow[addr] = value & ((1 << 64) - 1)
    for addr, value in shadow.items():
        assert bm.read(addr) == value


@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=2 ** 40), st.integers(min_value=2, max_value=64))
def test_address_map_homes_are_stable_and_in_range(addr, cores):
    amap = AddressMap(CacheConfig(), MemoryConfig(), cores)
    home = amap.home_bank(addr)
    assert 0 <= home < cores
    assert amap.home_bank(addr) == home
    assert amap.line_base(addr) <= addr < amap.line_base(addr) + 64


@COMMON_SETTINGS
@given(st.lists(st.sampled_from(["collision", "success", "observed"]), min_size=1, max_size=200))
def test_backoff_policies_stay_in_valid_ranges(events):
    rng = DeterministicRng(3, "prop")
    exponential = ExponentialBackoff(rng.child("e"), max_exponent=8)
    adaptive = BroadcastAwareBackoff(rng.child("a"), max_window=128)
    for event in events:
        if event == "collision":
            assert 0 <= exponential.on_collision() <= 255
            assert 0 <= adaptive.on_collision() <= 127
        elif event == "success":
            exponential.on_success()
            adaptive.on_success()
        else:
            exponential.on_observed_success()
            adaptive.on_observed_success()
        assert 0 <= exponential.exponent <= 8
        assert 1.0 <= adaptive.estimate <= 128


def _backoff_state(backoff):
    window = backoff.exponent if isinstance(backoff, ExponentialBackoff) else backoff.estimate.hex()
    return window, backoff.rng._random.getstate()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(["collision", "success", "deferral", "observed"]),
                min_size=1, max_size=300),
       st.sampled_from([ExponentialBackoff, BroadcastAwareBackoff]),
       st.integers(min_value=1, max_value=12))
def test_folded_observed_successes_equal_single_steps(events, policy, max_exponent):
    # The transceiver applies observed successes lazily, as one count before
    # its next own backoff read or update.  That must leave the same state,
    # bit for bit, and make the same draws as applying them one at a time.
    def build():
        rng = DeterministicRng(5, "fold")
        if policy is ExponentialBackoff:
            return ExponentialBackoff(rng, max_exponent=max_exponent)
        return BroadcastAwareBackoff(rng, max_window=1 << max_exponent)

    single, folded = build(), build()
    unseen = 0
    for event in events:
        if event == "observed":
            single.on_observed_success()
            unseen += 1
            continue
        if unseen:
            folded.on_observed_success(unseen)
            unseen = 0
        assert _backoff_state(folded) == _backoff_state(single)
        if event == "collision":
            assert folded.on_collision() == single.on_collision()
        elif event == "success":
            folded.on_success()
            single.on_success()
        else:
            assert folded.deferral() == single.deferral()
    folded.on_observed_success(unseen)
    assert _backoff_state(folded) == _backoff_state(single)


@COMMON_SETTINGS
@given(st.integers(min_value=0, max_value=10 ** 6), st.text(min_size=1, max_size=10))
def test_rng_streams_are_reproducible(seed, name):
    a = DeterministicRng(seed, name)
    b = DeterministicRng(seed, name)
    assert [a.randint(0, 1000) for _ in range(10)] == [b.randint(0, 1000) for _ in range(10)]

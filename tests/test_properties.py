"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import BroadcastMemoryConfig, CacheConfig, MemoryConfig
from repro.core.allocator import BmAllocator
from repro.core.broadcast_memory import BroadcastMemory
from repro.mem.address import AddressMap
from repro.mem.cache import CacheArray
from repro.mem.directory import Directory, LineState
from repro.mem.hierarchy import apply_rmw
from repro.isa.operations import RmwKind
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


@COMMON_SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=100),
       st.integers(min_value=1, max_value=8))
def test_cache_occupancy_never_exceeds_capacity(lines, assoc):
    cache = CacheArray(num_sets=4, associativity=assoc, line_bytes=64)
    for line in lines:
        cache.fill(line)
    assert cache.occupancy <= 4 * assoc
    for line in cache.resident_lines():
        assert cache.contains(line)


@COMMON_SETTINGS
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                          st.booleans()), min_size=1, max_size=60))
def test_directory_invariants_under_random_traffic(operations):
    directory = Directory()
    line = 42
    for core, is_write in operations:
        if is_write:
            directory.record_write(line, core)
        else:
            directory.record_read(line, core)
    entry = directory.entry(line)
    if entry.state is LineState.MODIFIED:
        assert entry.owner is not None
        assert entry.sharers == set()
    if entry.state is LineState.SHARED:
        assert entry.sharers


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


@COMMON_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=40))
def test_allocator_never_double_allocates(requests):
    allocator = BmAllocator(BroadcastMemoryConfig())
    seen = set()
    for pid, words in enumerate(requests, start=1):
        allocation = allocator.allocate(pid=pid, words=words)
        addresses = set(allocation.addresses)
        if not allocation.spilled:
            assert not (addresses & seen)
        seen |= addresses
    assert allocator.allocated_count <= allocator.capacity


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
    return window, backoff.collisions, backoff.successes, backoff.rng._random.getstate()


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

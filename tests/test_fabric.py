"""Tests for the broadcast fabric and the BM controller (WCB/AFB semantics)."""

import pytest

from repro.config import default_machine_config
from repro.core.fabric import BroadcastFabric
from repro.errors import AllocationError, ProtectionError, WirelessError
from repro.isa.operations import RmwKind
from repro.machine.configs import wisync
from repro.machine.manycore import Manycore
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


def make_fabric(cores=4):
    sim = Simulator()
    fabric = BroadcastFabric(sim, default_machine_config(cores), StatsRegistry())
    for core in range(cores):
        fabric.create_node(core)
    return sim, fabric


class TestFabricStores:
    def test_store_updates_replicated_memory_and_wcb(self):
        sim, fabric = make_fabric()
        controller = fabric.nodes[0].bm_controller
        done = []
        controller.store(3, 99, done.append)
        assert controller.wcb is False
        sim.run()
        assert done == [5]
        assert controller.wcb is True
        assert fabric.memory.read(3) == 99
        # The value is visible through every node's controller (replication).
        for node in fabric.nodes:
            value, latency = node.bm_controller.load(3)
            assert value == 99
            assert latency == 2

    def test_total_order_of_concurrent_stores(self):
        sim, fabric = make_fabric()
        order = []
        fabric.data_channel.add_listener(lambda m, c: order.append((m.sender, c)))
        for node_id in range(3):
            fabric.nodes[node_id].bm_controller.store(0, node_id + 1, lambda c: None)
        sim.run()
        # All three stores were serialized by the channel: distinct cycles.
        cycles = [c for _, c in order]
        assert len(cycles) == len(set(cycles)) == 3
        assert fabric.memory.read(0) in (1, 2, 3)

    def test_bulk_store_writes_four_entries(self):
        sim, fabric = make_fabric()
        controller = fabric.nodes[1].bm_controller
        done = []
        controller.bulk_store(8, (10, 11, 12, 13), done.append)
        sim.run()
        assert done == [15]
        assert [fabric.memory.read(8 + i) for i in range(4)] == [10, 11, 12, 13]
        values, _ = controller.bulk_load(8)
        assert values == (10, 11, 12, 13)

    def test_bulk_store_requires_four_values(self):
        sim, fabric = make_fabric()
        with pytest.raises(Exception):
            fabric.nodes[0].bm_controller.bulk_store(0, (1, 2), lambda c: None)


class TestFabricRmw:
    def test_uncontended_fetch_inc_succeeds(self):
        sim, fabric = make_fabric()
        results = []
        fabric.nodes[0].bm_controller.rmw(1, RmwKind.FETCH_AND_INC, results.append)
        sim.run()
        result = results[0]
        assert result.success and not result.afb
        assert result.old_value == 0
        assert fabric.memory.read(1) == 1

    def test_cas_comparison_failure_is_local(self):
        sim, fabric = make_fabric()
        fabric.memory.write(2, 7)
        results = []
        fabric.nodes[0].bm_controller.rmw(
            2, RmwKind.COMPARE_AND_SWAP, results.append, operand=9, expected=3
        )
        sim.run()
        result = results[0]
        assert not result.success and not result.afb
        assert fabric.memory.read(2) == 7
        # No wireless message was spent on the failed comparison.
        assert fabric.stats.counter_value("wireless/messages") == 0

    def test_concurrent_rmws_one_wins_others_get_afb(self):
        sim, fabric = make_fabric()
        results = []
        for node_id in range(4):
            fabric.nodes[node_id].bm_controller.rmw(5, RmwKind.FETCH_AND_INC, results.append)
        sim.run()
        winners = [r for r in results if r.success]
        losers = [r for r in results if not r.success]
        assert len(winners) == 1
        assert len(losers) == 3
        assert all(r.afb for r in losers)
        # Only the winner's value was applied.
        assert fabric.memory.read(5) == 1

    def test_afb_retry_eventually_counts_everyone(self):
        machine = Manycore(wisync(num_cores=4))
        fabric = machine.fabric
        sim = machine.sim
        counts = {"done": 0}

        def fetch_inc_with_retry(node_id):
            def retry(result):
                if result.afb:
                    fabric.nodes[node_id].bm_controller.rmw(9, RmwKind.FETCH_AND_INC, retry)
                else:
                    counts["done"] += 1

            fabric.nodes[node_id].bm_controller.rmw(9, RmwKind.FETCH_AND_INC, retry)

        for node_id in range(4):
            fetch_inc_with_retry(node_id)
        sim.run()
        assert counts["done"] == 4
        assert fabric.memory.read(9) == 4

    def test_pending_rmw_token_errors(self):
        sim, fabric = make_fabric()
        token = fabric.register_pending_rmw(0, 1)
        assert fabric.consume_pending_rmw(token) is False
        with pytest.raises(WirelessError):
            fabric.consume_pending_rmw(token)


class TestFabricWaiters:
    def test_wait_until_satisfied_immediately(self):
        sim, fabric = make_fabric()
        fabric.memory.write(4, 5)
        woken = []
        fabric.wait_until(4, lambda v: v == 5, woken.append)
        sim.run()
        assert woken == [5]

    def test_wait_until_woken_by_broadcast_store(self):
        sim, fabric = make_fabric()
        woken = []
        fabric.wait_until(6, lambda v: v == 1, lambda v: woken.append((v, sim.now)))
        assert fabric.waiter_count(6) == 1
        fabric.nodes[2].bm_controller.store(6, 1, lambda c: None)
        sim.run()
        assert len(woken) == 1
        value, cycle = woken[0]
        assert value == 1
        assert cycle >= 5  # after the 5-cycle broadcast plus local BM read
        assert fabric.waiter_count(6) == 0

    def test_unsatisfied_waiters_stay_parked(self):
        sim, fabric = make_fabric()
        woken = []
        fabric.wait_until(7, lambda v: v == 2, woken.append)
        fabric.nodes[0].bm_controller.store(7, 1, lambda c: None)
        sim.run()
        assert woken == []
        assert fabric.waiter_count(7) == 1

    def test_store_calls_each_predicate_once_and_wakes_in_order(self):
        sim, fabric = make_fabric()

        class Counting:
            """A plain callable predicate that counts its calls."""

            def __init__(self, target):
                self.target = target
                self.calls = 0

            def __call__(self, value):
                self.calls += 1
                return value == self.target

        predicates = {"a": Counting(2), "b": Counting(1), "c": Counting(2)}
        woken = []
        for name, predicate in predicates.items():
            fabric.wait_until(9, predicate, lambda value, name=name: woken.append(name))
        for predicate in predicates.values():
            predicate.calls = 0
        fabric.apply_store(9, 1, sender=0, cycle=sim.now)
        assert [p.calls for p in predicates.values()] == [1, 1, 1]
        sim.run()
        assert woken == ["b"]
        # "a" and "c" stay parked in registration order: the next
        # satisfying store wakes them in that order, again one call each.
        assert fabric.waiter_count(9) == 2
        fabric.apply_store(9, 2, sender=0, cycle=sim.now)
        assert [p.calls for p in predicates.values()] == [2, 1, 2]
        sim.run()
        assert woken == ["b", "a", "c"]
        assert fabric.waiter_count(9) == 0

    def test_allocation_and_spill_routing(self):
        sim, fabric = make_fabric()
        allocation = fabric.allocate(pid=1, words=4)
        assert not allocation.spilled
        assert fabric.memory.owner_pid(allocation.base_addr) == 1
        assert not fabric.is_spilled(allocation.base_addr)
        assert fabric.is_spilled(fabric.memory.spill_base)

    def test_tone_allocation_requires_tone_channel(self):
        sim = Simulator()
        config = default_machine_config(2).replace(
            tone_channel=default_machine_config(2).tone_channel.__class__(enabled=False)
        )
        fabric = BroadcastFabric(sim, config, StatsRegistry())
        fabric.create_node(0)
        with pytest.raises(WirelessError):
            fabric.allocate(pid=1, words=1, tone_capable=True, participants=[0])

    def test_free_releases_entries(self):
        sim, fabric = make_fabric()
        allocation = fabric.allocate(pid=1, words=2)
        fabric.free(pid=1, base_addr=allocation.base_addr, words=2)
        assert fabric.memory.allocated_count() == 0

    def test_free_of_another_pids_entry_changes_nothing(self):
        sim, fabric = make_fabric()
        assert fabric.allocate(pid=1).base_addr == 0
        assert fabric.allocate(pid=2).base_addr == 1
        with pytest.raises(ProtectionError):
            fabric.free(pid=1, base_addr=0, words=2)
        assert [fabric.memory.owner_pid(addr) for addr in (0, 1)] == [1, 2]
        assert fabric.memory.allocated_count() == 2
        fabric.free(pid=1, base_addr=0)
        assert fabric.allocate(pid=3).base_addr == 0

    def test_free_drops_the_tone_barrier_from_every_node(self):
        sim, fabric = make_fabric()
        addr = fabric.allocate(pid=1, tone_capable=True, participants=[0, 2]).base_addr
        armed = [node.tone_controller.is_armed(addr) for node in fabric.nodes]
        assert armed == [True, False, True, False]
        fabric.free(pid=1, base_addr=addr)
        assert not any(addr in node.tone_controller.alloc_b for node in fabric.nodes)
        assert fabric.memory.owner_pid(addr) is None

    def test_foreign_free_keeps_the_tone_barrier(self):
        sim, fabric = make_fabric()
        addr = fabric.allocate(pid=1, tone_capable=True, participants=[1]).base_addr
        with pytest.raises(ProtectionError):
            fabric.free(pid=2, base_addr=addr)
        assert fabric.nodes[1].tone_controller.is_armed(addr)
        assert all(addr in node.tone_controller.alloc_b for node in fabric.nodes)

    def test_spilled_allocations_are_counted_and_freed_without_entries(self):
        sim, fabric = make_fabric()
        capacity = fabric.memory.spill_base
        fabric.allocate(pid=1, words=capacity)
        spilled = fabric.allocate(pid=2, words=3)
        assert spilled.spilled and fabric.is_spilled(spilled.base_addr)
        assert fabric.stats.counter("bm/spilled_allocations").value == 1
        assert fabric.stats.counter("bm/allocations").value == 1
        fabric.free(pid=2, base_addr=spilled.base_addr, words=3)
        assert fabric.memory.allocated_count() == capacity

    def test_zero_word_free_keeps_the_tone_barrier(self):
        sim, fabric = make_fabric()
        addr = fabric.allocate(pid=1, tone_capable=True, participants=[0]).base_addr
        with pytest.raises(AllocationError):
            fabric.free(pid=2, base_addr=addr, words=0)
        assert all(addr in node.tone_controller.alloc_b for node in fabric.nodes)
        assert fabric.memory.owner_pid(addr) == 1

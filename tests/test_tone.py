"""Tests for the Tone channel and the per-node tone controllers."""

import pytest

from repro.config import ToneChannelConfig
from repro.errors import ToneBarrierError
from repro.machine.configs import wisync
from repro.machine.manycore import Manycore
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.wireless.tone import ToneChannel


def make_tone(sim):
    return ToneChannel(sim, ToneChannelConfig(), StatsRegistry())


class TestToneChannel:
    def test_barrier_completes_when_all_tones_stop(self, sim):
        tone = make_tone(sim)
        completions = []
        tone.add_completion_listener(lambda addr, cycle: completions.append((addr, cycle)))
        tone.activate(5, emitters={1, 2})
        sim.schedule_at(10, lambda: tone.stop_tone(5, 1))
        sim.schedule_at(30, lambda: tone.stop_tone(5, 2))
        sim.run()
        assert len(completions) == 1
        addr, cycle = completions[0]
        assert addr == 5
        assert cycle >= 30  # cannot complete before the last participant arrives

    def test_activation_with_no_emitters_completes_immediately(self, sim):
        tone = make_tone(sim)
        completions = []
        tone.add_completion_listener(lambda addr, cycle: completions.append(cycle))
        tone.activate(3, emitters=set())
        sim.run()
        assert len(completions) == 1
        assert completions[0] <= 3

    def test_detection_latency_grows_with_active_barriers(self, sim):
        tone = make_tone(sim)
        tone.activate(1, emitters={0})
        single = tone.detection_latency()
        tone.activate(2, emitters={0})
        tone.activate(3, emitters={0})
        assert tone.detection_latency() > single

    def test_double_activation_rejected(self, sim):
        tone = make_tone(sim)
        tone.activate(1, emitters={0})
        with pytest.raises(ToneBarrierError):
            tone.activate(1, emitters={1})

    def test_stop_tone_without_activation_rejected(self, sim):
        tone = make_tone(sim)
        with pytest.raises(ToneBarrierError):
            tone.stop_tone(9, 0)

    def test_multiple_concurrent_barriers(self, sim):
        tone = make_tone(sim)
        completions = []
        tone.add_completion_listener(lambda addr, cycle: completions.append(addr))
        tone.activate(1, emitters={0})
        tone.activate(2, emitters={1})
        sim.schedule_at(5, lambda: tone.stop_tone(2, 1))
        sim.schedule_at(9, lambda: tone.stop_tone(1, 0))
        sim.run()
        assert sorted(completions) == [1, 2]
        assert tone.active_barrier_count == 0

    def test_disabled_channel_rejects_activation(self, sim):
        tone = ToneChannel(sim, ToneChannelConfig(enabled=False), StatsRegistry())
        with pytest.raises(ToneBarrierError):
            tone.activate(0, emitters=set())


class TestToneController:
    def _machine(self, cores=4):
        return Manycore(wisync(num_cores=cores))

    def test_allocation_creates_allocb_everywhere(self):
        machine = self._machine()
        fabric = machine.fabric
        allocation = fabric.allocate(pid=1, words=1, tone_capable=True, participants=[0, 1, 2])
        for node in fabric.nodes:
            assert allocation.base_addr in node.tone_controller.alloc_b
        assert fabric.nodes[0].tone_controller.is_armed(allocation.base_addr)
        assert not fabric.nodes[3].tone_controller.is_armed(allocation.base_addr)

    def test_first_arrival_initiates_barrier(self):
        machine = self._machine()
        fabric = machine.fabric
        allocation = fabric.allocate(pid=1, words=1, tone_capable=True, participants=[0, 1])
        initiated = fabric.nodes[0].tone_controller.arrive(allocation.base_addr)
        assert initiated is True
        # Second tone_st from the same node before activation is idempotent.
        assert fabric.nodes[0].tone_controller.arrive(allocation.base_addr) is False

    def test_allocb_overflow_raises(self):
        machine = Manycore(wisync(num_cores=2))
        controller = machine.fabric.nodes[0].tone_controller
        for addr in range(controller.config.table_entries):
            controller.allocate_barrier(addr, armed=True)
        with pytest.raises(ToneBarrierError):
            controller.allocate_barrier(9999, armed=True)

    def test_arrive_on_unallocated_barrier_raises(self):
        machine = self._machine()
        with pytest.raises(ToneBarrierError):
            machine.fabric.nodes[0].tone_controller.arrive(123)

    def test_full_hardware_barrier_round(self):
        machine = self._machine(cores=4)
        fabric = machine.fabric
        sim = machine.sim
        allocation = fabric.allocate(pid=1, words=1, tone_capable=True,
                                     participants=[0, 1, 2, 3])
        addr = allocation.base_addr
        for node_id in range(4):
            sim.schedule_at(node_id * 7, lambda n=node_id: fabric.nodes[n].tone_controller.arrive(addr))
        sim.run()
        # The location toggled from 0 to 1 when the last core arrived.
        assert fabric.memory.entry(addr).value == 1
        assert fabric.stats.counter_value("tone/completions") == 1
        # Reuse: second episode toggles back to 0.
        for node_id in range(4):
            sim.schedule(node_id * 3 + 1, lambda n=node_id: fabric.nodes[n].tone_controller.arrive(addr))
        sim.run()
        assert fabric.memory.entry(addr).value == 0
        assert fabric.stats.counter_value("tone/completions") == 2

    def test_unarmed_node_does_not_block_barrier(self):
        machine = self._machine(cores=4)
        fabric = machine.fabric
        sim = machine.sim
        allocation = fabric.allocate(pid=1, words=1, tone_capable=True, participants=[0, 1])
        addr = allocation.base_addr
        sim.schedule_at(0, lambda: fabric.nodes[0].tone_controller.arrive(addr))
        sim.schedule_at(4, lambda: fabric.nodes[1].tone_controller.arrive(addr))
        sim.run()
        # Nodes 2 and 3 never arrive, yet the barrier completes.
        assert fabric.stats.counter_value("tone/completions") == 1

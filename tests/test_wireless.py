"""Tests for the wireless Data channel, backoff policies, transceiver, and RF model."""

import pytest

from repro.config import BackoffConfig, DataChannelConfig, ToneChannelConfig
from repro.errors import ConfigurationError
from repro.experiments.scenarios import WIRELESS_CONFIGS, scenario_sweep
from repro.runner.executor import execute_spec
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng
from repro.sim.stats import StatsRegistry
from repro.wireless.backoff import (
    BackoffPolicy,
    BroadcastAwareBackoff,
    ExponentialBackoff,
    FixedBackoff,
    make_backoff,
)
from repro.wireless.channel import DataChannel, WirelessMessage
from repro.wireless.link_budget import (
    YU_65NM_REFERENCE,
    scale_design_point,
    tone_extension_cost,
    wisync_rf_budget,
)
from repro.wireless.tone import ToneChannel
from repro.wireless.transceiver import Transceiver


# ---------------------------------------------------------------------------
# Backoff policies
# ---------------------------------------------------------------------------
class TestBackoff:
    def test_exponential_window_grows_and_shrinks(self, rng):
        backoff = ExponentialBackoff(rng, max_exponent=4)
        assert backoff.exponent == 0
        backoff.on_collision()
        backoff.on_collision()
        assert backoff.exponent == 2
        backoff.on_success()
        assert backoff.exponent == 1
        for _ in range(10):
            backoff.on_collision()
        assert backoff.exponent == 4  # capped

    def test_exponential_backoff_within_window(self, rng):
        backoff = ExponentialBackoff(rng, max_exponent=6)
        for collisions in range(1, 7):
            delay = backoff.on_collision()
            assert 0 <= delay <= (1 << collisions) - 1

    def test_exponential_deferral_zero_without_contention(self, rng):
        backoff = ExponentialBackoff(rng)
        assert backoff.deferral() == 0

    def test_fixed_backoff_window(self, rng):
        backoff = FixedBackoff(rng, window=4)
        for _ in range(20):
            assert 0 <= backoff.on_collision() <= 3

    def test_broadcast_aware_estimate_tracks_contention(self, rng):
        backoff = BroadcastAwareBackoff(rng, max_window=64)
        backoff.on_collision()
        backoff.on_collision()
        high = backoff.estimate
        for _ in range(5):
            backoff.on_observed_success()
        assert backoff.estimate < high

    def test_make_backoff_kinds(self, rng):
        assert isinstance(make_backoff(BackoffConfig(kind="exponential"), rng), ExponentialBackoff)
        assert isinstance(make_backoff(BackoffConfig(kind="fixed"), rng), FixedBackoff)
        assert isinstance(make_backoff(BackoffConfig(kind="broadcast_aware"), rng), BroadcastAwareBackoff)

    def test_invalid_parameters(self, rng):
        with pytest.raises(ConfigurationError):
            ExponentialBackoff(rng, max_exponent=0)
        with pytest.raises(ConfigurationError):
            FixedBackoff(rng, window=0)
        with pytest.raises(ConfigurationError):
            BroadcastAwareBackoff(rng, max_window=1)

    def test_broadcast_aware_observed_successes_converge_window(self, rng):
        # Deterministic: the estimate decays by exactly one per observed
        # success, so a drained channel converges the window back to 1 (and
        # deferral back to 0) regardless of the RNG stream.
        backoff = BroadcastAwareBackoff(rng, max_window=64)
        for _ in range(6):
            backoff.on_collision()
        assert backoff._window() == 64
        for step in range(63):
            backoff.on_observed_success()
        assert backoff.estimate == 1.0
        assert backoff._window() == 1
        assert backoff.deferral() == 0
        # Converged is a floor, not an overshoot.
        backoff.on_observed_success()
        assert backoff.estimate == 1.0


# ---------------------------------------------------------------------------
# Data channel
# ---------------------------------------------------------------------------
def make_channel(sim):
    return DataChannel(sim, DataChannelConfig(), StatsRegistry())


class TestDataChannel:
    def test_single_message_takes_five_cycles(self, sim):
        channel = make_channel(sim)
        done = []
        channel.transmit(
            WirelessMessage(sender=0, bm_addr=1, value=7),
            on_complete=lambda m, c: done.append(c),
            on_collision=lambda m: 0,
        )
        sim.run()
        assert done == [5]

    def test_bulk_message_takes_fifteen_cycles(self, sim):
        channel = make_channel(sim)
        done = []
        channel.transmit(
            WirelessMessage(sender=0, bm_addr=1, bulk=True, bulk_values=(1, 2, 3, 4)),
            on_complete=lambda m, c: done.append(c),
            on_collision=lambda m: 0,
        )
        sim.run()
        assert done == [15]

    def test_two_simultaneous_senders_collide_then_succeed(self, sim):
        channel = make_channel(sim)
        done = {}
        backoffs = iter([0, 3])

        def send(sender):
            channel.transmit(
                WirelessMessage(sender=sender, bm_addr=1, value=sender),
                on_complete=lambda m, c, s=sender: done.setdefault(s, c),
                on_collision=lambda m: next(backoffs),
            )

        send(0)
        send(1)
        sim.run()
        assert channel.stats.counter_value("wireless/collisions") == 1
        assert len(done) == 2
        assert min(done.values()) >= 2 + 5  # collision penalty then a full message

    def test_messages_serialize_on_busy_channel(self, sim):
        channel = make_channel(sim)
        completions = []

        def send_at(cycle, sender):
            sim.schedule_at(cycle, lambda: channel.transmit(
                WirelessMessage(sender=sender, bm_addr=1, value=0),
                on_complete=lambda m, c: completions.append(c),
                on_collision=lambda m: 0,
            ))

        send_at(0, 0)
        send_at(1, 1)   # channel busy: defers to next free slot
        sim.run()
        assert completions == [5, 10]
        assert channel.stats.counter_value("wireless/collisions") == 0

    def test_listener_sees_every_delivery(self, sim):
        channel = make_channel(sim)
        heard = []
        channel.add_listener(lambda m, c: heard.append((m.sender, c)))
        for sender in range(3):
            sim.schedule_at(sender * 10, lambda s=sender: channel.transmit(
                WirelessMessage(sender=s, bm_addr=0, value=s),
                on_complete=lambda m, c: None,
                on_collision=lambda m: 0,
            ))
        sim.run()
        assert [s for s, _ in heard] == [0, 1, 2]

    def test_cancelled_transmission_never_delivers(self, sim):
        channel = make_channel(sim)
        done = []
        handle = None

        def submit():
            nonlocal handle
            handle = channel.transmit(
                WirelessMessage(sender=0, bm_addr=0, value=1),
                on_complete=lambda m, c: done.append(c),
                on_collision=lambda m: 0,
                earliest=sim.now + 10,
            )

        sim.schedule_at(0, submit)
        sim.schedule_at(2, lambda: handle.cancel())
        sim.run()
        assert done == []
        assert channel.stats.counter_value("wireless/messages") == 0

    def test_cancel_fails_after_transmission_started(self, sim):
        channel = make_channel(sim)
        handle_box = {}
        handle_box["h"] = channel.transmit(
            WirelessMessage(sender=0, bm_addr=0, value=1),
            on_complete=lambda m, c: None,
            on_collision=lambda m: 0,
        )
        outcome = []
        sim.schedule_at(3, lambda: outcome.append(handle_box["h"].cancel()))
        sim.run()
        assert outcome == [False]
        assert channel.stats.counter_value("wireless/messages") == 1

    def test_utilization_tracks_busy_cycles(self, sim):
        channel = make_channel(sim)
        for i in range(3):
            sim.schedule_at(i * 20, lambda: channel.transmit(
                WirelessMessage(sender=0, bm_addr=0, value=0),
                on_complete=lambda m, c: None,
                on_collision=lambda m: 0,
            ))
        sim.run()
        tracker = channel.stats.utilizations["wireless/data_channel"]
        assert tracker.busy_cycles == 15

    def test_transfer_latency_histogram(self, sim):
        channel = make_channel(sim)
        channel.transmit(
            WirelessMessage(sender=0, bm_addr=0, value=0),
            on_complete=lambda m, c: None,
            on_collision=lambda m: 0,
        )
        sim.run()
        assert channel.stats.histograms["wireless/transfer_latency"].mean == 5


# ---------------------------------------------------------------------------
# Transceiver MAC
# ---------------------------------------------------------------------------
class TestTransceiver:
    def _transceiver(self, sim, node_id=0):
        channel = make_channel(sim)
        rng = DeterministicRng(1, f"mac{node_id}")
        backoff = ExponentialBackoff(rng)
        return Transceiver(node_id, channel, backoff, DataChannelConfig(), StatsRegistry()), channel

    def test_send_store_completes(self, sim):
        transceiver, _ = self._transceiver(sim)
        done = []
        transceiver.send_store(3, 42, lambda m, c: done.append((m.value, c)))
        sim.run()
        assert done == [(42, 5)]
        assert transceiver.stats.counter_value("transceiver/0/sent") == 1

    def test_sends_are_serialized_per_node(self, sim):
        transceiver, _ = self._transceiver(sim)
        completions = []
        transceiver.send_store(0, 1, lambda m, c: completions.append(c))
        transceiver.send_store(1, 2, lambda m, c: completions.append(c))
        assert transceiver.queue_depth == 2
        sim.run()
        assert completions == [5, 10]

    def test_bulk_store_uses_bulk_timing(self, sim):
        transceiver, _ = self._transceiver(sim)
        done = []
        transceiver.send_bulk_store(0, (1, 2, 3, 4), lambda m, c: done.append(c))
        sim.run()
        assert done == [15]

    def test_tone_init_sets_tone_bit(self, sim):
        transceiver, channel = self._transceiver(sim)
        heard = []
        channel.add_listener(lambda m, c: heard.append(m.tone_bit))
        transceiver.send_tone_init(4, lambda m, c: None)
        sim.run()
        assert heard == [True]

    def test_cancel_queued_send(self, sim):
        transceiver, channel = self._transceiver(sim)
        ticket_first = transceiver.send_store(0, 1, lambda m, c: None)
        ticket_second = transceiver.send_store(1, 2, lambda m, c: None)
        assert ticket_second.cancel() is True
        sim.run()
        assert channel.stats.counter_value("wireless/messages") == 1

    def test_cancel_after_completion_fails(self, sim):
        transceiver, _ = self._transceiver(sim)
        ticket = transceiver.send_store(0, 1, lambda m, c: None)
        sim.run()
        assert ticket.cancel() is False

    def test_cancel_in_flight_send_before_it_transmits(self, sim):
        channel = make_channel(sim)
        node0 = Transceiver(0, channel, ExponentialBackoff(DeterministicRng(1, "mac0")),
                            DataChannelConfig(), StatsRegistry())
        node1 = Transceiver(1, channel, ExponentialBackoff(DeterministicRng(1, "mac1")),
                            DataChannelConfig(), StatsRegistry())
        heard, done, tickets, outcome = [], [], [], []
        channel.add_listener(lambda m, c: heard.append((m.sender, m.value, c)))
        node1.send_store(0, 10, lambda m, c: None)  # holds the channel for cycles 0-5

        def submit():
            tickets.append(node0.send_store(0, 1, lambda m, c: done.append(m.value)))
            tickets.append(node0.send_store(0, 2, lambda m, c: done.append(m.value)))

        sim.schedule_at(1, submit)
        # The first send is in flight, waiting for the busy channel: cancelling
        # it must succeed and hand the channel slot to the queued second send.
        sim.schedule_at(2, lambda: outcome.append(tickets[0].cancel()))
        sim.run()
        assert outcome == [True]
        assert heard == [(1, 10, 5), (0, 2, 10)]
        assert done == [2]
        assert node0.stats.counter_value("transceiver/0/sent") == 1
        assert node0.queue_depth == 0
        assert tickets[0].cancel() is False

    def test_mac_folds_heard_successes_but_never_its_own(self, sim):
        class RecordingBackoff(BackoffPolicy):
            def __init__(self):
                self.log = []

            def on_collision(self):
                return 0

            def on_success(self):
                self.log.append("own")

            def deferral(self):
                self.log.append("deferral")
                return 0

            def on_observed_success(self, count=1):
                self.log.append(count)

        channel = make_channel(sim)
        backoffs = [RecordingBackoff(), RecordingBackoff()]
        node0, node1 = (Transceiver(node, channel, backoffs[node], DataChannelConfig(), StatsRegistry())
                        for node in range(2))
        for value in range(3):
            node1.send_store(0, value, lambda m, c: None)
        sim.run()
        node0.send_store(0, 7, lambda m, c: None)
        sim.run()
        node1.send_store(0, 8, lambda m, c: None)
        sim.run()
        # Node 0 heard three transfers and applies them as one count before
        # its deferral draw; node 1 never counts its own three, only node 0's.
        assert backoffs[0].log == [3, "deferral", "own"]
        assert backoffs[1].log == ["deferral", "own"] * 3 + [1, "deferral", "own"]
        assert channel.completed == 5


# ---------------------------------------------------------------------------
# MAC counts across whole runs
# ---------------------------------------------------------------------------
_MAC_CORES = 16
_MAC_SPECS = scenario_sweep(
    core_counts=[_MAC_CORES],
    configs=list(WIRELESS_CONFIGS),
    contention=["high"],
    backoffs=["broadcast_aware", "exponential"],
).specs


@pytest.mark.parametrize(
    "spec", _MAC_SPECS, ids=lambda s: f"{s.workload}-{s.config}-{s.variant or 'default'}"
)
def test_mac_counts_agree_with_the_channel(spec):
    # The channel counts a collision once per slot with two or more senders,
    # and every one of those senders counts it.  The channel counts a transfer
    # when it starts and the sender when it completes, and each MAC has at
    # most one transfer in flight when the run ends.
    stats = execute_spec(spec).stats
    sent = sum(stats.counter_value(f"transceiver/{i}/sent") for i in range(_MAC_CORES))
    seen = sum(stats.counter_value(f"transceiver/{i}/collisions") for i in range(_MAC_CORES))
    collisions = stats.counter_value("wireless/collisions")
    messages = stats.counter_value("wireless/messages")
    assert collisions > 0
    assert seen >= 2 * collisions
    assert sent <= messages <= sent + _MAC_CORES


# ---------------------------------------------------------------------------
# RF link budget (Section 2 / Table 4 inputs)
# ---------------------------------------------------------------------------
class TestLinkBudget:
    def test_reference_design_matches_yu(self):
        assert YU_65NM_REFERENCE.bandwidth_gbps == 16.0
        assert YU_65NM_REFERENCE.area_mm2 == 0.23
        assert YU_65NM_REFERENCE.power_mw == 31.2

    def test_scaling_to_22nm_matches_paper_projection(self):
        scaled = scale_design_point(YU_65NM_REFERENCE, 22)
        assert scaled.area_mm2 == pytest.approx(0.10, abs=0.02)
        assert scaled.power_mw <= 16.1

    def test_tone_extension_cost(self):
        tone = tone_extension_cost(22)
        assert tone.area_mm2 == pytest.approx(0.04)
        assert tone.power_mw == pytest.approx(2.0)

    def test_total_budget_is_table4_value(self):
        total = wisync_rf_budget(22)
        assert total.area_mm2 == pytest.approx(0.14)
        assert total.power_mw == pytest.approx(18.0)
        assert total.antennas == 2

    def test_projection_to_older_node_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_design_point(wisync_rf_budget(22), 65)

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            scale_design_point(YU_65NM_REFERENCE, 28)

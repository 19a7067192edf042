"""Tests for the discrete-event engine, RNG, and statistics."""

import random

import pytest

from repro.errors import AnalysisError, ReproError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRng, _derive_seed
from repro.sim.stats import (
    Counter,
    Histogram,
    UtilizationTracker,
    arithmetic_mean,
    geometric_mean,
)


class TestSimulator:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_cycle_events_fire_in_schedule_order(self, sim):
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_priority_orders_within_cycle(self, sim):
        order = []
        sim.schedule(5, order.append, "late", priority=10)
        sim.schedule(5, order.append, "early", priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(5, fired.append, "early")
        sim.schedule(50, fired.append, "late")
        sim.run(until=10)
        assert fired == ["early"]
        assert sim.now == 10

    def test_run_max_events(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_events_processed_counter(self, sim):
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_processed == 2
        assert sim.pending_events == 0

    def test_schedule_returns_no_handle(self, sim):
        # The engine has no event cancellation: nothing to hand back.
        assert sim.schedule(1, lambda: None) is None
        assert sim.schedule_at(2, lambda: None) is None
        assert sim.pending_events == 2

    def test_events_can_schedule_more_events(self, sim):
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1, chain, depth + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_drain_detects_runaway(self, sim):
        def forever():
            sim.schedule(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(SimulationError):
            sim.drain(max_events=100)

    def test_stop_ends_run_mid_queue(self, sim):
        fired = []
        sim.schedule(1, fired.append, "a")
        sim.schedule(2, lambda: sim.stop())
        sim.schedule(3, fired.append, "late")
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 1
        sim.run()  # stop does not persist across runs
        assert fired == ["a", "late"]

    def test_drain_ignores_stop_requests(self, sim):
        fired = []
        sim.schedule(1, fired.append, "a")
        sim.schedule(2, lambda: sim.stop())
        sim.schedule(3, fired.append, "b")
        assert sim.drain() == 3
        assert fired == ["a", "b"]
        assert sim.pending_events == 0

    def test_stop_at_fires_the_boundary_event(self, sim):
        fired = []
        sim.schedule(5, fired.append, 5)
        sim.schedule(10, fired.append, 10)
        sim.schedule(15, fired.append, 15)
        sim.run(stop_at=10)
        # Unlike until=, stop_at lets the event that reaches the bound fire.
        assert fired == [5, 10]
        assert sim.now == 10


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7, "x")
        b = DeterministicRng(7, "x")
        assert [a.randint(0, 100) for _ in range(20)] == [b.randint(0, 100) for _ in range(20)]

    def test_different_names_differ(self):
        a = DeterministicRng(7, "x")
        b = DeterministicRng(7, "y")
        assert [a.randint(0, 10 ** 9) for _ in range(5)] != [b.randint(0, 10 ** 9) for _ in range(5)]

    def test_child_streams_are_independent_of_creation_order(self):
        parent1 = DeterministicRng(7, "m")
        parent2 = DeterministicRng(7, "m")
        a = parent1.child("a")
        _ = parent1.child("b")
        a2 = parent2.child("a")
        assert a.randint(0, 10 ** 9) == a2.randint(0, 10 ** 9)

    def test_randint_makes_the_stdlib_draws(self):
        # Same values and the same Mersenne-Twister consumption as
        # random.Random.randint: widths 1..600 (width 1 still draws a bit)
        # and ranges that start below zero.
        rng = DeterministicRng(7, "draws")
        reference = random.Random(_derive_seed(7, "draws"))
        for width in range(1, 601):
            for _ in range(50):
                assert rng.randint(0, width - 1) == reference.randint(0, width - 1)
        for index in range(5000):
            low = -1 - index % 997
            high = low + index % 613
            assert rng.randint(low, high) == reference.randint(low, high)
        assert rng._random.getstate() == reference.getstate()

    def test_randint_empty_range_is_a_repro_error(self, rng):
        with pytest.raises(SimulationError, match="empty range"):
            rng.randint(5, 4)
        assert issubclass(SimulationError, ReproError)

    def test_jitter_bounds(self, rng):
        for _ in range(100):
            value = rng.jitter(100, fraction=0.1)
            assert 90 <= value <= 110

    def test_jitter_of_zero_mean(self, rng):
        assert rng.jitter(0) == 0

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(10))
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(10))


class TestStats:
    def test_counter(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_histogram_statistics(self):
        histogram = Histogram("h")
        for value in (1, 2, 3, 4):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.mean == 2.5
        assert histogram.minimum == 1
        assert histogram.maximum == 4
        assert histogram.percentile(0.5) in (2, 3)

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.percentile(0.9) == 0.0

    def test_percentile_cache_invalidated_by_record(self):
        histogram = Histogram("h")
        for value in (5, 1, 3):
            histogram.record(value)
        assert histogram.percentile(0.0) == 1
        assert histogram.percentile(1.0) == 5  # served from the cached sort
        histogram.record(0)
        assert histogram.percentile(0.0) == 0  # record() must invalidate
        histogram.record(9)
        assert histogram.percentile(1.0) == 9

    def test_repeated_percentiles_sort_once(self, monkeypatch):
        histogram = Histogram("h")
        for value in range(100):
            histogram.record(value)
        calls = []
        import repro.sim.stats as stats_module
        real_sorted = sorted
        monkeypatch.setattr(
            stats_module, "sorted", lambda it: calls.append(1) or real_sorted(it),
            raising=False,
        )
        for fraction in (0.1, 0.5, 0.9, 0.99):
            histogram.percentile(fraction)
        assert len(calls) == 1

    def test_percentile_survives_direct_sample_extension(self):
        # from_dict and the snapshot restore set .samples directly; the cached
        # view must not go stale.
        histogram = Histogram("h")
        for value in (1, 2, 3):
            histogram.record(value)
        assert histogram.percentile(1.0) == 3
        histogram.samples.extend([10.0])
        assert histogram.percentile(1.0) == 10

    def test_utilization_tracker(self):
        tracker = UtilizationTracker("u")
        tracker.add_busy(30)
        tracker.add_busy(20)
        assert tracker.busy_cycles == 50
        assert tracker.utilization(100) == 0.5
        assert tracker.utilization(0) == 0.0

    def test_utilization_rejects_negative(self):
        with pytest.raises(SimulationError):
            UtilizationTracker("u").add_busy(-1)

    def test_registry_creates_and_reuses(self, stats):
        assert stats.counter("a") is stats.counter("a")
        assert stats.histogram("b") is stats.histogram("b")
        assert stats.utilization("c") is stats.utilization("c")

    def test_snapshot_flattens(self, stats):
        stats.counter("n").add(7)
        stats.histogram("h").record(2.0)
        snap = stats.snapshot()
        assert snap["counter/n"] == 7
        assert snap["hist/h/count"] == 1

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(AnalysisError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        assert arithmetic_mean([]) == 0.0

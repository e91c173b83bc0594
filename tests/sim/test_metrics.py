"""Unit tests of the measurement instruments."""

import pytest

from repro.sim.metrics import (
    Counter,
    LatencyRecorder,
    MetricRegistry,
    SloTracker,
    ThroughputTracker,
)


class TestCounter:
    def test_increment_accumulates(self):
        counter = Counter("ops")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("ops").increment(-1)

    def test_reset(self):
        counter = Counter("ops")
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestLatencyRecorder:
    def test_mean_and_count(self):
        recorder = LatencyRecorder("lat")
        for value in (0.010, 0.020, 0.030):
            recorder.record(value)
        assert recorder.count == 3
        assert recorder.mean() == pytest.approx(0.020)
        assert recorder.mean_ms() == pytest.approx(20.0)

    def test_empty_recorder_returns_zero(self):
        recorder = LatencyRecorder("lat")
        assert recorder.mean() == 0.0
        assert recorder.percentile(99) == 0.0
        assert recorder.cdf() == []

    def test_percentiles_are_order_statistics(self):
        recorder = LatencyRecorder("lat")
        for i in range(1, 101):
            recorder.record(i / 1000.0)
        assert recorder.percentile(50) == pytest.approx(0.050)
        assert recorder.percentile(95) == pytest.approx(0.095)
        assert recorder.percentile(100) == pytest.approx(0.100)
        assert recorder.percentiles(95, 50, 100) == pytest.approx([0.095, 0.050, 0.100])

    def test_percentile_bounds_checked(self):
        recorder = LatencyRecorder("lat")
        recorder.record(0.1)
        with pytest.raises(ValueError):
            recorder.percentile(150)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder("lat").record(-0.1)

    def test_cdf_is_monotonic_and_ends_at_one(self):
        recorder = LatencyRecorder("lat")
        for i in range(50):
            recorder.record(i / 100.0)
        cdf = recorder.cdf(points=10)
        fractions = [f for _, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        latencies = [l for l, _ in cdf]
        assert latencies == sorted(latencies)

    def test_reset_drops_samples(self):
        recorder = LatencyRecorder("lat")
        recorder.record(0.1)
        recorder.reset()
        assert recorder.count == 0


class TestThroughputTracker:
    def test_rate_over_window(self):
        clock = {"now": 0.0}
        tracker = ThroughputTracker("tp", clock=lambda: clock["now"])
        for t in range(10):
            clock["now"] = float(t)
            tracker.record(2.0)
        assert tracker.total_between(0.0, 10.0) == 20.0
        assert tracker.rate(0.0, 10.0) == pytest.approx(2.0)
        assert tracker.total_between(0.0, 5.0) == 10.0

    def test_timeline_includes_empty_buckets(self):
        clock = {"now": 0.0}
        tracker = ThroughputTracker("tp", clock=lambda: clock["now"], bucket_seconds=1.0)
        clock["now"] = 0.5
        tracker.record(1.0)
        clock["now"] = 2.5
        tracker.record(3.0)
        timeline = tracker.timeline(0.0, 4.0)
        assert len(timeline) == 4
        assert timeline[0][1] == pytest.approx(1.0)
        assert timeline[1][1] == 0.0
        assert timeline[2][1] == pytest.approx(3.0)

    def test_rate_of_empty_window_is_zero(self):
        tracker = ThroughputTracker("tp", clock=lambda: 0.0)
        assert tracker.rate(5.0, 5.0) == 0.0
        assert tracker.timeline(3.0, 3.0) == []

    def test_events_exactly_on_bucket_boundaries(self):
        """An event at a bucket edge belongs to the bucket it *opens*.

        Buckets are half-open ``[start, start+b)``: an event at exactly t=1.0
        with 1-second buckets lands in bucket 1, never bucket 0, and an event
        at the window end is excluded entirely (the window is ``[start, end)``).
        """
        clock = {"now": 0.0}
        tracker = ThroughputTracker("tp", clock=lambda: clock["now"], bucket_seconds=1.0)
        for t in (0.0, 1.0, 2.0):
            clock["now"] = t
            tracker.record(1.0)
        timeline = tracker.timeline(0.0, 2.0)
        assert [units for _, units in timeline] == [1.0, 1.0]  # t=2.0 excluded
        assert tracker.total_between(0.0, 2.0) == 2.0
        assert tracker.total_between(1.0, 2.0) == 1.0  # start edge included
        assert tracker.rate(0.0, 2.0) == pytest.approx(1.0)

    def test_fractional_final_bucket_covers_the_window_end(self):
        """A window that is not a whole number of buckets still covers it:
        the final (short) bucket exists and its rate is units / bucket."""
        clock = {"now": 2.25}
        tracker = ThroughputTracker("tp", clock=lambda: clock["now"], bucket_seconds=1.0)
        tracker.record(4.0)
        timeline = tracker.timeline(0.0, 2.5)
        assert len(timeline) == 3
        assert timeline[-1][0] == pytest.approx(2.0)
        assert timeline[-1][1] == pytest.approx(4.0)

    def test_reset_drops_events_but_keeps_identity(self):
        clock = {"now": 0.5}
        tracker = ThroughputTracker("tp", clock=lambda: clock["now"])
        tracker.record(3.0)
        tracker.reset()
        assert tracker.total_between(0.0, 1.0) == 0.0
        assert tracker.rate(0.0, 1.0) == 0.0
        assert tracker.name == "tp"
        tracker.record(1.0)
        assert tracker.total_between(0.0, 1.0) == 1.0


class TestMetricRegistry:
    def test_instruments_are_singletons_by_name(self):
        registry = MetricRegistry(clock=lambda: 0.0)
        assert registry.counter("a") is registry.counter("a")
        assert registry.latency("b") is registry.latency("b")
        assert registry.throughput("c") is registry.throughput("c")

    def test_a_sketch_threshold_applies_on_first_creation_only(self):
        registry = MetricRegistry(clock=lambda: 0.0)
        sketched = registry.latency("sketched", sketch=4)
        assert registry.latency("sketched") is sketched
        exact = registry.latency("exact")
        assert registry.latency("exact", sketch=4) is exact
        for i in range(10):
            sketched.record(0.001 * (i + 1))
            exact.record(0.001 * (i + 1))
        assert exact.percentile(50) == pytest.approx(0.005)  # an exact order statistic
        assert sketched.count == exact.count == 10
        assert sketched.percentile(50) == pytest.approx(0.005, rel=0.02)
        assert sketched._buckets is not None and exact._buckets is None

    def test_reset_all(self):
        registry = MetricRegistry(clock=lambda: 0.0)
        registry.counter("a").increment(5)
        registry.latency("b").record(0.1)
        registry.throughput("c").record(1.0)
        registry.reset_all()
        assert registry.counter("a").value == 0
        assert registry.latency("b").count == 0
        assert registry.throughput("c").total_between(0.0, 1.0) == 0


class TestSloTracker:
    """`record` resolves a class's instruments once; the registry must read the
    same as when every sample formatted five names and probed it five times."""

    @staticmethod
    def _by_name(registry, cls, latency):
        # SloTracker.record before the instruments were cached per class.
        registry.latency(f"slo.{cls}.latency").record(latency)
        registry.counter(f"slo.{cls}.requests").increment()
        registry.counter(f"slo.{cls}.violations")
        target = {"gold": 0.020, "bulk": 0.5}.get(cls)
        if target is not None and latency > target:
            registry.counter(f"slo.{cls}.violations").increment()

    def test_matches_per_sample_registry_lookups_across_a_reset(self):
        cached, by_name = MetricRegistry(clock=lambda: 0.0), MetricRegistry(clock=lambda: 0.0)
        tracker = SloTracker(cached, {"gold": 0.020, "bulk": 0.5})
        SloTracker(by_name, {"gold": 0.020, "bulk": 0.5})
        samples = [("gold", 0.019), ("gold", 0.021), ("untargeted", 9.0), ("bulk", 0.6),
                   ("gold", 0.020), ("untargeted", 0.001)]
        for round_ in range(2):
            for cls, latency in samples:
                tracker.record(cls, latency)
                self._by_name(by_name, cls, latency)
            assert sorted(cached._counters) == sorted(by_name._counters)
            assert sorted(cached._latencies) == sorted(by_name._latencies)
            for cls in ("gold", "bulk", "untargeted"):
                for kind in ("requests", "violations"):
                    name = f"slo.{cls}.{kind}"
                    assert cached.counter(name).value == by_name.counter(name).value
                assert (cached.latency(f"slo.{cls}.latency").percentile(50)
                        == by_name.latency(f"slo.{cls}.latency").percentile(50))
            assert cached.counter("slo.gold.violations").value == 1
            if round_ == 0:  # reset_all keeps instrument objects: the cache stays valid
                cached.reset_all()
                by_name.reset_all()


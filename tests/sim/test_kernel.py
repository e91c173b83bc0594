"""Unit tests of the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from tests.reference.kernel import ReferenceKernel


class TestScheduling:
    def test_run_executes_callbacks_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_later(2.0, fired.append, "late")
        sim.call_later(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 2.0

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.call_later(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-0.1, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_later(0.0, lambda: order.append("nested"))
            order.append("still-first")

        sim.call_later(1.0, first)
        sim.run()
        assert order == ["first", "still-first", "nested"]


class TestRunControl:
    def test_run_until_stops_the_clock_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "a")
        sim.call_later(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    @pytest.mark.parametrize("kernel", [Simulator, ReferenceKernel])
    def test_run_until_a_past_time_is_refused_and_leaves_the_clock(self, kernel):
        # With an event still queued, the loop's "next event is past the
        # horizon" branch lands the clock on ``until`` — which must not be
        # behind it.
        sim = kernel()
        sim.call_later(9.0, lambda: None)
        sim.run(until=6.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 6.0
        assert sim.run(until=6.0) == 6.0  # the present is not the past

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.call_later(i + 1.0, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.now == 3.0  # a capped run stops at its last event, not at a horizon

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.call_later(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.call_later(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.processed_events == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        handle = sim.call_later(1.0, fired.append, "x")
        handle.cancel()
        handle.cancel()
        sim.run()
        assert fired == [] and sim.processed_events == 0

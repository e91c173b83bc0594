"""Unit tests of the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator, ms, us
from tests.reference.kernel import ReferenceKernel


class TestScheduling:
    def test_run_executes_callbacks_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 2.0

    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties_before_sequence(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=1)
        sim.schedule(1.0, fired.append, "high", priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.5, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 3.5

    def test_schedule_at_past_time_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_runs_after_current_event(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("nested"))
            order.append("still-first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "still-first", "nested"]


class TestRunControl:
    def test_run_until_stops_the_clock_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
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
        sim.schedule(9.0, lambda: None)
        sim.run(until=6.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)
        assert sim.now == 6.0
        assert sim.run(until=6.0) == 6.0  # the present is not the past

    def test_stop_interrupts_the_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, lambda: sim.stop())
        sim.schedule(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 1

    def test_max_events_limits_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i + 1.0, fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.now == 3.0  # a capped run stops at its last event, not at a horizon

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_drain_discards_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.drain(5.0)
        sim.run()
        assert fired == []
        assert sim.now == 5.0

    def test_drain_backwards_rejected(self):
        sim = Simulator(start_time=3.0)
        with pytest.raises(SimulationError):
            sim.drain(1.0)


class TestTimeHelpers:
    def test_ms_and_us_conversions(self):
        assert ms(5) == 0.005
        assert us(250) == 0.00025

"""The profiling harness: zero-perturbation guarantee and collector semantics.

``Simulator(profile=SimProfile())`` makes ``run`` step through the queue one
``step()`` at a time, and ``step`` times each callback.  The contract is that
the stepped path executes the *exact same* event sequence as the run loop —
same order, same virtual timestamps, same processed-event count — while
attributing counts and wall time per callback.  These tests run identically
seeded workloads with and without a profile installed (with and without
``max_events`` / ``until``) and require byte-identical trajectories — a
profiled ring deployment must deliver the golden sequence — then pin the
collector's keying, injectable clock, and JSON summary shape.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator
from repro.sim.profile import SimProfile, profile_function
from tests import golden
from tests.sim.test_kernel_fastpath import _run_stack_system


def _fan_out_workload(sim: Simulator, log: list) -> None:
    """A small self-extending workload: timers scheduling timers."""

    def tick(label: str, depth: int) -> None:
        log.append((sim.now, label, depth))
        if depth < 3:
            sim.call_later(0.001 * (depth + 1), tick, f"{label}.l", depth + 1)
            sim.call_later(0.002, tick, f"{label}.r", depth + 1)

    def post_only() -> None:
        log.append((sim.now, "post", -1))

    sim.call_later(0.0, tick, "a", 0)
    sim.call_later(0.0005, tick, "b", 0)
    sim._post(0.0015, post_only)


def _run(profile=None, max_events=None, until=None):
    sim = Simulator(profile=profile)
    log: list = []
    _fan_out_workload(sim, log)
    end = sim.run(until=until, max_events=max_events)
    return log, end, sim.processed_events


class TestZeroPerturbation:
    def test_profiled_run_matches_default_loop(self):
        baseline, base_end, base_count = _run()
        profile = SimProfile()
        profiled, prof_end, prof_count = _run(profile=profile)
        assert profiled == baseline
        assert prof_end == base_end
        assert prof_count == base_count
        assert profile.total_events == base_count

    def test_profiled_run_matches_capped_and_bounded_runs(self):
        for kwargs in (
            {"max_events": 9},
            {"until": 0.003},
            {"until": 0.003, "max_events": 9},
        ):
            baseline, base_end, base_count = _run(**kwargs)
            profiled, prof_end, prof_count = _run(profile=SimProfile(), **kwargs)
            assert profiled == baseline, f"trajectory diverged for {kwargs}"
            assert prof_end == base_end
            assert prof_count == base_count

    def test_profiled_deployment_delivers_the_golden_sequence(self):
        profile = SimProfile()
        system, processes = _run_stack_system(3, profile=profile)
        assert system.env.simulator.profile is profile
        assert golden.digest([p.delivered for p in processes]) == golden.load()["stack"]["3"]
        assert sum(profile.events.values()) == system.env.simulator.processed_events > 0

    def test_profile_property_exposes_installed_collector(self):
        profile = SimProfile()
        assert Simulator(profile=profile).profile is profile
        assert Simulator().profile is None


class TestSimProfileCollector:
    def test_counts_attribute_every_processed_event(self):
        profile = SimProfile()
        _, _, count = _run(profile=profile)
        assert profile.total_events == count
        # Both heap-entry layouts were attributed: Event callbacks (tick)
        # and bare _post callbacks (post_only).
        keys = set(profile.events)
        assert any("tick" in k for k in keys)
        assert any("post_only" in k for k in keys)

    def test_injectable_clock_yields_deterministic_wall_time(self):
        ticks = iter(range(10_000))
        profile = SimProfile(clock=lambda: float(next(ticks)))
        _, _, count = _run(profile=profile)
        # The fake clock advances by exactly 1.0 between the bracketing
        # reads of every event, so attributed wall time == event count.
        assert profile.total_wall_s == float(count)
        for key, events in profile.events.items():
            assert profile.wall[key] == float(events)

    def test_record_memoizes_bound_method_names(self):
        profile = SimProfile(clock=lambda: 0.0)

        class Thing:
            def cb(self):
                pass

        thing = Thing()
        profile.record(thing.cb, 0.5)
        profile.record(thing.cb, 0.25)  # a fresh bound-method object each time
        assert profile.events == {"TestSimProfileCollector.test_record_memoizes_bound_method_names.<locals>.Thing.cb": 2}
        assert profile.total_wall_s == 0.75

    def test_as_dict_is_json_able_and_sorted_by_wall(self):
        import json

        profile = SimProfile()
        _run(profile=profile)
        summary = profile.as_dict(top=5)
        json.dumps(summary)  # must not raise
        assert summary["total_events"] == profile.total_events
        rows = summary["events_by_callback"]
        assert len(rows) <= 5
        walls = [row["wall_s"] for row in rows]
        assert walls == sorted(walls, reverse=True)
        assert all({"callback", "events", "wall_s"} <= set(row) for row in rows)


class TestProfileFunction:
    def test_returns_result_and_hot_rows(self):
        def work(n):
            return sum(i * i for i in range(n))

        result, hot = profile_function(work, 1_000, top=5)
        assert result == sum(i * i for i in range(1_000))
        assert 0 < len(hot) <= 5
        for row in hot:
            assert {"function", "calls", "tottime_s", "cumtime_s"} <= set(row)
        # Sorted by exclusive time, descending.
        tottimes = [row["tottime_s"] for row in hot]
        assert tottimes == sorted(tottimes, reverse=True)

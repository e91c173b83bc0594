"""The accept rule as ``benchmarks/ab_pairs.py`` computes it (no ledger run)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

CONTRACT = {"end_to_end": [
    {"name": "commands_per_host_s", "better": "higher", "bound": 0.25},
    {"name": "events_per_command", "better": "lower", "bound": 0.01},
    {"name": "sim_latency_p50_ms", "better": "lower", "bound": 0.02},
]}


def run(commands, events=7.8, p50=0.17, failed=0, correct=True):
    metrics = {"commands_per_host_s": commands, "events_per_command": events,
               "sim_latency_p50_ms": p50}
    return {"metrics": metrics, "failed": failed, "correct": correct, "exit": 0}


def test_rule_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parents_spread():
    parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
    clear = ab_pairs.verdict(parent, [v * 1.2 for v in parent], "higher")
    assert clear["won"] == 10 and clear["enough_pairs"]
    assert clear["wins_nine_tenths"] and clear["beyond_parent_spread"]
    # Every pair won, but by less than the parent's own inter-quartile distance.
    slim = ab_pairs.verdict(parent, [v + 0.5 for v in parent], "higher")
    assert slim["won"] == 10 and not slim["beyond_parent_spread"]
    # Two losses in ten is under nine tenths; a tie counts for neither side.
    mixed = ab_pairs.verdict(parent, [v * 1.2 for v in parent[:7]] + [1, 1, parent[9]], "higher")
    assert (mixed["won"], mixed["ties"], mixed["wins_nine_tenths"]) == (7, 1, False)
    assert not ab_pairs.verdict(parent[:9], [v * 2 for v in parent[:9]], "higher")["enough_pairs"]
    lower = ab_pairs.verdict(parent, [v * 0.5 for v in parent], "lower")
    assert lower["won"] == 10 and lower["beyond_parent_spread"]


def test_simulated_metrics_must_repeat_exactly_and_nothing_may_fail():
    assert ab_pairs.exact_differences([run(100), run(130)], CONTRACT) == []
    moved = ab_pairs.exact_differences([run(100), run(130, events=7.9)], CONTRACT)
    assert len(moved) == 1 and moved[0].startswith("events_per_command differs")
    assert ab_pairs.exact_differences([run(100), run(130, failed=3)], CONTRACT)
    assert ab_pairs.exact_differences([run(100), run(130, correct=False)], CONTRACT)


def test_bound_report_flags_a_host_metric_past_its_bound():
    report = ab_pairs.bound_report(
        {"parent": [run(100), run(100)], "change": [run(70), run(72)]}, CONTRACT
    )
    assert "WORSE" in report[0] and "ok" in report[1] and "ok" in report[2]


def test_layer_report_puts_the_sides_next_to_each_other_and_names_the_layer_that_moved():
    def traced(**self_s):
        return {"metrics": {f"{layer.replace('_', '.')}.self_s": seconds
                            for layer, seconds in self_s.items()} | {"core.swarm.calls": 9}}

    report = ab_pairs.layer_report(
        traced(sim_kernel=2.0, core_swarm=1.0, kvstore=0.2),
        traced(sim_kernel=2.05, core_swarm=0.6, kvstore=0.1),
    )
    assert [line.split()[0] for line in report[1:4]] == ["sim.kernel", "core.swarm", "kvstore"]
    assert report[2].split()[1:] == ["1.0000", "0.6000", "-40.0%"]
    assert report[-1] == "  layer that moved most: core.swarm (-0.4000 s self time)"

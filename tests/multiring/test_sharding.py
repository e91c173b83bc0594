"""Tests of ring components (`repro.multiring.sharding`).

The planner that uses them, `repro.chaos.scenario.shardable_components`, is
tested in `tests/chaos/test_sharded_scenarios.py`.
"""

from __future__ import annotations

from repro.multiring import ring_components


def test_disjoint_rings_are_separate_components():
    assert ring_components({0: ["a", "b"], 1: ["c", "d"], 2: ["e"]}) == [[0], [1], [2]]


def test_shared_process_merges_rings():
    assert ring_components({0: ["a", "b"], 1: ["b", "c"], 2: ["d"]}) == [[0, 1], [2]]


def test_transitive_sharing_merges_chains():
    # 0-1 share b, 1-2 share c: all three are one component.
    comps = ring_components({0: ["a", "b"], 1: ["b", "c"], 2: ["c", "d"]})
    assert comps == [[0, 1, 2]]


def test_components_are_deterministic():
    rings = {3: ["x", "y"], 1: ["y", "z"], 7: ["q"], 5: ["r", "s"]}
    assert ring_components(rings) == ring_components(dict(reversed(list(rings.items()))))


def test_no_rings_no_components():
    assert ring_components({}) == []


def test_single_ring_is_one_component():
    assert ring_components({4: ["a", "b"]}) == [[4]]

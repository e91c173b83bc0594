"""Sharded execution of chaos scenarios (`--workers`): eligibility and
determinism.

Scenarios whose rings form components disjoint in their traffic-generating
members (proposers/acceptors) opt into sharded execution — including the
shared-learner draws, where a learner-only subscriber spans every ring and a
merge stage reconstructs its cross-component delivery order.  Everything
else must fall back to the single-process runner with an explicit marker in
its stats.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.scenario import (
    _run_amcast_sharded,
    _split_amcast_spec,
    generate_spec,
    run_scenario,
    shardable_components,
    shared_merge_learners,
)
from repro.multiring import merge
from tests.conftest import mutate


# ---------------------------------------------------------------------------
# The planner on hand-written specs
# ---------------------------------------------------------------------------

def _spec(rings, schedule=(), messages=(), family="amcast"):
    """A minimal amcast spec: what the planner and the splitter read."""
    names = sorted({name for members in rings.values() for name, _ in members})
    return {
        "family": family,
        "seed": 5,
        "sites": ["s0", "s1"],
        "processes": {name: "s0" for name in names},
        "rings": rings,
        "messages": list(messages),
        "schedule": list(schedule),
    }


def _event(at, action, **params):
    return {"at": at, "action": action, "params": params}


def _message(at, sender, group):
    return {"at": at, "sender": sender, "group": group, "payload": f"{sender}@{at}", "size": 64}


def test_a_pal_member_of_two_rings_fuses_them():
    spec = _spec({
        0: [["a", "pal"], ["b", "pal"]],
        1: [["b", "pal"], ["c", "pal"]],
        2: [["d", "pal"]],
    })
    assert shardable_components(spec) == [[0, 1], [2]]


def test_a_learner_only_process_spanning_components_is_a_merge_learner():
    spec = _spec({
        0: [["a0", "pal"], ["a1", "pal"], ["shared", "l"]],
        1: [["b0", "pal"], ["b1", "pal"], ["shared", "l"]],
        99: [["c0", "pal"], ["shared", "l"]],
    })
    components = shardable_components(spec)
    assert components == [[0], [1], [99]]
    assert shared_merge_learners(spec, components) == ["shared"]


def test_a_learner_whose_rings_share_an_acceptor_is_not_a_merge_learner():
    spec = _spec({
        0: [["a", "pa"], ["x", "pal"], ["shared", "l"]],
        1: [["a", "pa"], ["y", "pal"], ["shared", "l"]],
        2: [["z", "pal"]],
    })
    components = shardable_components(spec)
    assert components == [[0, 1], [2]]
    assert shared_merge_learners(spec, components) == []


_DISJOINT = {0: [["a", "pal"], ["b", "pal"]], 1: [["c", "pal"], ["d", "pal"]]}


@pytest.mark.parametrize("event", [
    _event(0.2, "partition", site_a="s0", site_b="s1"),
    _event(0.4, "heal", site_a="s0", site_b="s1"),
    _event(0.2, "isolate", site="s1"),
    _event(0.4, "rejoin", site="s1"),
], ids=lambda event: event["action"])
def test_a_site_fault_disqualifies(event):
    assert shardable_components(_spec(_DISJOINT)) == [[0], [1]]
    assert shardable_components(_spec(_DISJOINT, schedule=[event])) is None


def test_a_non_amcast_family_or_a_single_component_does_not_shard():
    assert shardable_components(_spec(_DISJOINT, family="kvstore")) is None
    fused = {0: [["a", "pal"], ["b", "pal"]], 1: [["b", "pal"], ["c", "pal"]]}
    assert shardable_components(_spec(fused)) is None
    assert shardable_components(_spec({0: [["a", "pal"]]})) is None


def _routing_spec():
    """Two rings coupled by learner ``s`` only, with one fault of each kind."""
    return _spec(
        {
            0: [["a0", "pal"], ["a1", "pal"], ["s", "l"]],
            1: [["b0", "pal"], ["b1", "pal"], ["s", "l"]],
        },
        schedule=[
            _event(0.1, "crash", process="a0"),
            _event(0.2, "restart", process="a0"),
            _event(0.3, "crash", process="s"),
            _event(0.4, "restart", process="s"),
            _event(0.5, "remove_from_ring", ring_id=1, process="b1"),
            _event(0.6, "add_to_ring", ring_id=1, process="b1", roles="pal"),
            _event(0.7, "disk_spike", factor=5.0, match="s."),
            _event(0.8, "disk_restore", match="s."),
        ],
        messages=[_message(0.1, "a0", 0), _message(0.2, "b0", 1), _message(0.3, "a1", 0)],
    )


def test_stringified_ring_keys_plan_and_split_identically():
    """Artifacts store the spec as JSON, which turns ring ids into strings."""
    spec = _routing_spec()
    artifact = json.loads(json.dumps(spec))
    assert set(artifact["rings"]) == {"0", "1"}
    components = shardable_components(spec)
    assert shardable_components(artifact) == components == [[0], [1]]
    assert shared_merge_learners(artifact, components) == ["s"]
    for component in components:
        assert _split_amcast_spec(artifact, component, 3.5, ["s"]) == _split_amcast_spec(
            spec, component, 3.5, ["s"]
        )


def test_split_routes_faults_and_messages_to_their_component():
    spec = _routing_spec()
    first, second = (_split_amcast_spec(spec, [ring], 3.5, ["s"]) for ring in (0, 1))

    # Crash/restart follow the victim; the shared learner's go to both.
    # Reconfiguration follows the ring id; disk spikes go everywhere.
    assert [e["at"] for e in first["schedule"]] == [0.1, 0.2, 0.3, 0.4, 0.7, 0.8]
    assert [e["at"] for e in second["schedule"]] == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    assert [m["group"] for m in first["messages"]] == [0, 0]
    assert [m["group"] for m in second["messages"]] == [1]

    assert first["rings"] == {0: spec["rings"][0]}
    assert sorted(first["processes"]) == ["a0", "a1", "s"]
    assert sorted(second["processes"]) == ["b0", "b1", "s"]
    for sub in (first, second):
        # Every shard runs to the whole scenario's end, not its own.
        assert sub["active_end"] == 3.5
        assert sub["merge_learners"] == ["s"]


def test_split_keeps_merge_learners_to_the_component_hosting_them():
    spec = _spec({
        0: [["a", "pal"], ["s", "l"]],
        1: [["b", "pal"], ["s", "l"]],
        2: [["c", "pal"]],
    })
    assert _split_amcast_spec(spec, [0], 1.0, ["s"])["merge_learners"] == ["s"]
    assert _split_amcast_spec(spec, [2], 1.0, ["s"])["merge_learners"] == []


# ---------------------------------------------------------------------------
# Generated seeds
# ---------------------------------------------------------------------------

#: Scanned once; the generator guarantees a fraction of disjoint multi-ring
#: scenarios, so this range always yields a handful (seed 36 is the first).
SEED_RANGE = range(0, 120)


def _eligible_seeds(count: int, require_merge_learners=None):
    found = []
    for seed in SEED_RANGE:
        spec = generate_spec(seed)
        components = shardable_components(spec)
        if not components:
            continue
        if require_merge_learners is not None:
            has_shared = bool(shared_merge_learners(spec, components))
            if has_shared != require_merge_learners:
                continue
        found.append(seed)
        if len(found) == count:
            break
    return found


def test_generator_produces_shardable_scenarios():
    seeds = _eligible_seeds(3)
    assert len(seeds) == 3, "expected disjoint-ring scenarios in the seed range"
    for seed in seeds:
        components = shardable_components(generate_spec(seed))
        assert len(components) >= 2
        # Components are disjoint in their traffic-generating members; only
        # learner-only subscribers (handled by the merge stage) may span.
        spec = generate_spec(seed)
        members = [
            {m[0] for rid in comp for m in spec["rings"][rid] if m[1] != "l"}
            for comp in components
        ]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert not (a & b)


def test_generator_produces_shared_learner_draws():
    """Some draws couple process-disjoint rings through one shared learner."""
    seeds = _eligible_seeds(2, require_merge_learners=True)
    assert len(seeds) == 2, "expected shared-learner scenarios in the seed range"
    for seed in seeds:
        spec = generate_spec(seed)
        components = shardable_components(spec)
        learners = shared_merge_learners(spec, components)
        assert learners
        for name in learners:
            subscribed = [
                rid for rid, members in spec["rings"].items()
                if any(m[0] == name and "l" in m[1] for m in members)
            ]
            assert len(subscribed) >= 2, "shared learner must span rings"


def test_site_faults_disqualify():
    for seed in SEED_RANGE:
        spec = generate_spec(seed)
        if any(
            event.get("action") in ("partition", "isolate")
            for event in spec.get("schedule", [])
        ):
            assert shardable_components(spec) is None or spec["family"] != "amcast"
            return
    pytest.skip("no site-fault scenario in the scanned range")


def test_sharded_verdict_and_traces_match_single_process_engine():
    """workers=2 and workers=1 produce identical verdicts and deliveries."""
    seed = _eligible_seeds(1)[0]
    spec = generate_spec(seed)
    components = shardable_components(spec)
    v1, s1, t1, d1 = _run_amcast_sharded(spec, components, workers=1)
    v2, s2, t2, d2 = _run_amcast_sharded(spec, components, workers=2)
    assert [(v.prop, v.detail) for v in v1] == [(v.prop, v.detail) for v in v2]
    assert d1 == d2, "per-learner delivery sequences differ across worker counts"
    assert t1 == t2
    assert s1["deliveries"] == s2["deliveries"]
    assert s1["sent"] == s2["sent"]
    assert d1, "sharded run delivered nothing"


def test_run_scenario_opts_in_and_reports_shards():
    seed = _eligible_seeds(1)[0]
    result = run_scenario(seed, workers=2)
    assert result.ok, result.violations
    sharded = result.stats["sharded"]
    assert sharded["workers"] == 2
    assert len(sharded["shards"]) >= 2


def test_shared_learner_merge_stage_identical_across_workers():
    """Shared-learner draws shard: merged digests match across worker counts.

    The shared learner is mirrored into every shard; the merge stage streams
    the shipped per-ring segments into its cross-component delivery digest,
    which must be byte-identical between the in-process engine and two
    workers.  Since restarts are deduped where they happen, in the shard's
    segment buffer, there is no fault-touched fallback: *every* shared
    learner that recorded streams gets a merged digest, crashed/restarted or
    not.
    """
    seeds = _eligible_seeds(2, require_merge_learners=True)
    assert seeds, "expected shared-learner seeds in the range"
    for seed in seeds:
        spec = generate_spec(seed)
        components = shardable_components(spec)
        learners = shared_merge_learners(spec, components)
        v1, s1, t1, d1 = _run_amcast_sharded(spec, components, workers=1)
        v2, s2, t2, d2 = _run_amcast_sharded(spec, components, workers=2)
        assert [(v.prop, v.detail) for v in v1] == [(v.prop, v.detail) for v in v2]
        assert d1 == d2
        assert t1 == t2
        assert s1["sharded"]["merge_learners"] == learners
        for name in learners:
            assert d1.get(name), f"merge stage produced no digest for {name}"
            # The merged digest spans every component the learner subscribes
            # to (skips excluded from the digest, so only components whose
            # rings carried application messages appear).
            groups = {group for group, _, _ in d1[name]}
            assert groups, "merged digest delivered nothing"


def test_fault_touched_shared_learner_still_gets_merged_digest():
    """A shared learner crashed/restarted mid-run must still merge.

    The generator's shared-learner fault family crashes the learner itself;
    its restarted learners re-emit stream prefixes, and the shards' segment
    buffers drop them instead of bailing out to per-shard partial digests.
    Scan the seed range for such a draw and require the merged digest plus
    a clean verdict at both worker counts.
    """
    found = None
    for seed in SEED_RANGE:
        spec = generate_spec(seed)
        components = shardable_components(spec)
        if not components:
            continue
        learners = shared_merge_learners(spec, components)
        if not learners:
            continue
        touched = {
            event.get("params", {}).get("process")
            for event in spec["schedule"]
            if event.get("action") in ("crash", "restart")
        }
        if any(name in touched for name in learners):
            found = (seed, spec, components, learners)
            break
    assert found is not None, "no crashed-shared-learner seed in the range"
    seed, spec, components, learners = found
    v1, s1, t1, d1 = _run_amcast_sharded(spec, components, workers=1)
    v2, s2, t2, d2 = _run_amcast_sharded(spec, components, workers=2)
    assert [(v.prop, v.detail) for v in v1] == [(v.prop, v.detail) for v in v2]
    assert d1 == d2
    reactive = s1["sharded"]["reactive_merge"]
    for name in learners:
        assert d1.get(name), f"no merged digest for fault-touched {name}"
        assert name in reactive


def test_smoke_matrix_shared_learner_verdicts_match_single_process():
    """Oracle verdicts at --workers 2 equal the single-process verdicts.

    The smoke slice: every shared-learner-eligible seed in the scanned range
    runs through ``run_scenario`` both ways; the verdict (ok + violation
    list) must be identical.
    """
    seeds = _eligible_seeds(2, require_merge_learners=True)
    assert seeds, "expected shared-learner seeds in the smoke range"
    for seed in seeds:
        single = run_scenario(seed, workers=1)
        sharded = run_scenario(seed, workers=2)
        assert single.ok == sharded.ok, (
            f"seed {seed}: verdicts diverge ({single.violations} vs "
            f"{sharded.violations})"
        )
        assert [(v.prop, v.detail) for v in single.violations] == [
            (v.prop, v.detail) for v in sharded.violations
        ]
        assert sharded.stats["sharded"]["merge_learners"]


def test_reordered_wire_segments_are_a_named_violation(monkeypatch, tmp_path):
    """Prover: a wire decoder that swaps two adjacent entries fails the oracle.

    ``_segment_from_columns`` rebuilds every segment a worker ships to the
    merge stage; the mutant swaps the first two entries of each.  While the
    sharded oracle replayed re-chunked whole-run histories instead of the
    shipped segments, and the cursor dropped a displaced instance as a
    duplicate, this mutant passed 4/4 shared-learner seeds (36, 39, 76, 83)
    at two workers.  Now it must surface as a named violation, not a
    traceback.
    """
    seed = _eligible_seeds(1, require_merge_learners=True)[0]
    monkeypatch.setattr(merge, "_segment_from_columns", mutate(
        merge._segment_from_columns,
        ("    return RingSegment(", "    entries[:2] = entries[1::-1]\n    return RingSegment("),
    ))
    result = run_scenario(seed, artifacts_dir=str(tmp_path), workers=2)
    assert not result.ok
    assert {v.prop for v in result.violations} == {"merge-stream-divergence"}
    assert "out of order" in result.violations[0].detail


def test_run_scenario_falls_back_for_ineligible_scenarios():
    for seed in SEED_RANGE:
        if shardable_components(generate_spec(seed)) is None:
            result = run_scenario(seed, workers=2)
            assert result.stats.get("sharded") is False
            return
    pytest.fail("every scanned seed was shardable, which cannot be right")


def test_workers_one_keeps_legacy_stats_shape():
    result = run_scenario(0, workers=1)
    assert "sharded" not in result.stats

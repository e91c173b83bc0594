"""Prove the harness can fail: inject ordering bugs, expect violations.

A chaos harness whose oracle never fires is worthless.  These tests sabotage
the merge/learner path of one learner — the exact component the paper's order
property depends on — and assert the oracle catches it.
"""

import os

import pytest

from repro.chaos.oracle import check_delivery_properties
from repro.chaos.trace import TraceRecorder
from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from tests.conftest import mutate


def build_two_ring_deployment(seed=5):
    config = MultiRingConfig(
        rate_interval=0.005,
        max_rate=1000.0,
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.15,
    )
    system = AtomicMulticast(seed=seed, config=config)
    processes = {
        name: MultiRingProcess(system.env, name) for name in ("p0", "p1", "p2", "p3")
    }
    system.create_ring(0, [("p0", "pal"), ("p1", "pal"), ("p2", "pal"), ("p3", "l")])
    system.create_ring(1, [("p0", "pal"), ("p1", "pal"), ("p3", "pal"), ("p2", "l")])
    recorder = TraceRecorder()
    for process in processes.values():
        recorder.attach(process)
    return system, processes, recorder


def drive_workload(system, processes, recorder, count=24):
    sim = system.env.simulator
    for i in range(count):
        group = i % 2
        sender = processes["p0"] if i % 3 else processes["p1"]
        payload = f"g{group}-m{i}"

        def send(sender=sender, group=group, payload=payload):
            recorder.record_sent(payload, sender.name, group, sim.now)
            sender.multicast(group, payload=payload, size_bytes=64)

        sim.call_later(0.01 + 0.005 * i, send)
    system.start()
    system.run(until=2.0)


def sabotage_merger_swap(process):
    """Make one learner emit each pair of deliveries in swapped order."""
    merger = process.merger
    original = merger._on_deliver
    held = []

    def swapping(group, instance, value):
        held.append((group, instance, value))
        if len(held) == 2:
            original(*held[1])
            original(*held[0])
            held.clear()

    merger._on_deliver = swapping


def sabotage_merger_duplicate(process, payload_marker="m4"):
    """Make one learner deliver a chosen message twice."""
    merger = process.merger
    original = merger._on_deliver

    def duplicating(group, instance, value):
        original(group, instance, value)
        if isinstance(value.payload, str) and value.payload.endswith(payload_marker):
            original(group, instance, value)

    merger._on_deliver = duplicating


def sabotage_merger_drop(process, payload_marker="m6"):
    """Make one learner silently drop a chosen message."""
    merger = process.merger
    original = merger._on_deliver

    def dropping(group, instance, value):
        if isinstance(value.payload, str) and value.payload.endswith(payload_marker):
            return
        original(group, instance, value)

    merger._on_deliver = dropping


class TestHealthyBaseline:
    def test_unsabotaged_run_passes(self):
        system, processes, recorder = build_two_ring_deployment()
        drive_workload(system, processes, recorder)
        assert check_delivery_properties(recorder) == []


class TestInjectedBugsAreCaught:
    def test_swapped_merge_order_is_caught(self):
        system, processes, recorder = build_two_ring_deployment()
        sabotage_merger_swap(processes["p2"])
        drive_workload(system, processes, recorder)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "acyclic-order" for v in violations), (
            "the oracle missed a deliberately swapped merge order"
        )

    def test_duplicate_delivery_is_caught(self):
        system, processes, recorder = build_two_ring_deployment()
        sabotage_merger_duplicate(processes["p1"])
        drive_workload(system, processes, recorder)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(
            v.prop == "integrity" and "twice" in v.detail for v in violations
        ), "the oracle missed a duplicate delivery"

    def test_dropped_delivery_is_caught(self):
        system, processes, recorder = build_two_ring_deployment()
        sabotage_merger_drop(processes["p3"])
        drive_workload(system, processes, recorder)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "agreement" for v in violations), (
            "the oracle missed a silently dropped delivery"
        )


class TestArtifactDump:
    def test_violation_produces_replayable_artifact(self, tmp_path, monkeypatch):
        """A sabotaged scenario run dumps a JSON artifact with the seed."""
        import json

        from repro.chaos import scenario as scenario_mod
        from repro.multiring.merge import DeterministicMerger

        # Break the round-robin globally but arrival-dependently: consume from
        # whichever ring has input instead of honouring the merge order.
        original_offer = DeterministicMerger.offer

        def eager_offer(self, group_id, instance, value):
            self._emit(group_id, instance, value)

        monkeypatch.setattr(DeterministicMerger, "offer", eager_offer)
        # find an amcast seed with >1 ring so the sabotage can bite
        seed = next(
            s for s in range(100)
            if scenario_mod.generate_spec(s)["family"] == "amcast"
            and len(scenario_mod.generate_spec(s)["rings"]) > 1
        )
        result = scenario_mod.run_scenario(seed, artifacts_dir=str(tmp_path))
        monkeypatch.setattr(DeterministicMerger, "offer", original_offer)
        assert not result.ok
        assert result.artifact_path is not None
        with open(result.artifact_path) as handle:
            artifact = json.load(handle)
        assert artifact["seed"] == seed
        assert str(seed) in artifact["replay"]
        assert artifact["violations"]
        assert artifact["spec"]["schedule"] == scenario_mod.generate_spec(seed)["schedule"]

    def test_a_kvstore_violation_writes_its_artifact(self, tmp_path, monkeypatch):
        """A kvstore trace holds unhashable commands; the artifact is still written."""
        from repro.chaos import scenario as scenario_mod

        # A read that sees exactly the acknowledged write now counts as stale.
        monkeypatch.setattr(scenario_mod._RywClient, "on_message", mutate(
            scenario_mod._RywClient.on_message,
            ("observed < self._acked_size[key]", "observed <= self._acked_size[key]"),
        ))
        seed = next(
            s for s in range(100) if scenario_mod.generate_spec(s)["family"] == "kvstore"
        )
        result = scenario_mod.run_scenario(seed, artifacts_dir=str(tmp_path))
        assert "read-your-writes" in {violation.prop for violation in result.violations}
        assert result.artifact_path is not None
        assert os.path.exists(result.artifact_path)

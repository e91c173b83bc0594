"""Tests of the per-ring learner ordering and the coordinator bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MultiRingConfig, global_config
from repro.paxos.messages import ProposalValue, SKIP
from repro.ringpaxos.coordinator import CoordinatorState, PackedValues
from repro.ringpaxos.learner import RingLearner


def value(payload, size=100):
    return ProposalValue(payload=payload, size_bytes=size)


class TestRingLearner:
    def _learner(self):
        out = []
        learner = RingLearner(0, lambda ring, instance, v: out.append((instance, v.payload)))
        return learner, out

    def test_emits_in_instance_order(self):
        learner, out = self._learner()
        learner.observe_value(0, value("a"))
        learner.observe_value(1, value("b"))
        learner.observe_decision(1, value("b"))
        assert out == []  # instance 0 not decided yet
        learner.observe_decision(0, value("a"))
        assert [i for i, _ in out] == [0, 1]

    def test_decision_without_value_waits_for_it(self):
        learner, out = self._learner()
        learner.observe_decision(0, None)
        assert out == []
        learner.supply_missing_value(0, value("late"))
        assert out == [(0, "late")]

    def test_value_seen_earlier_is_used_for_bare_decisions(self):
        learner, out = self._learner()
        learner.observe_value(0, value("x"))
        learner.observe_decision(0, None)
        assert out == [(0, "x")]

    def test_duplicate_decisions_ignored(self):
        learner, out = self._learner()
        learner.observe_decision(0, value("a"))
        learner.observe_decision(0, value("a"))
        assert len(out) == 1

    def test_skips_are_emitted_in_order(self):
        learner, out = self._learner()
        learner.observe_decision(0, ProposalValue(payload=SKIP, size_bytes=0))
        learner.observe_decision(1, value("real"))
        assert out == [(0, SKIP), (1, "real")]

    def test_fast_forward_skips_old_instances(self):
        learner, out = self._learner()
        learner.fast_forward(4)
        learner.observe_decision(2, value("old"))
        learner.observe_decision(5, value("new"))
        assert out == [(5, "new")]
        assert learner.next_to_emit == 6

    def test_inject_decided_for_recovery(self):
        learner, out = self._learner()
        learner.fast_forward(1)
        learner.inject_decided(2, value("recovered"))
        learner.inject_decided(3, value("recovered2"))
        assert [i for i, _ in out] == [2, 3]

    @given(st.permutations(list(range(8))))
    @settings(max_examples=40, deadline=None)
    def test_any_decision_arrival_order_yields_instance_order(self, order):
        learner, out = self._learner()
        for instance in order:
            learner.observe_decision(instance, value(instance))
        assert [i for i, _ in out] == list(range(8))


class TestCoordinatorState:
    def test_phase1_quorum_gate(self):
        coordinator = CoordinatorState(0, 1, MultiRingConfig())
        coordinator.enqueue(value("v"))
        assert coordinator.next_assignments() == []
        assert not coordinator.record_promise("a0", quorum=2)
        assert coordinator.record_promise("a1", quorum=2)
        assignments = coordinator.next_assignments()
        assert len(assignments) == 1
        assert assignments[0][0] == 0

    def test_unbatched_assignment_is_one_instance_per_value(self):
        coordinator = CoordinatorState(0, 1, MultiRingConfig())
        coordinator.record_promise("a0", quorum=1)
        for i in range(3):
            coordinator.enqueue(value(i))
        assignments = coordinator.next_assignments()
        assert [i for i, _ in assignments] == [0, 1, 2]
        assert coordinator.ledger.next_instance == 3

    def test_batched_assignment_packs_values(self):
        coordinator = CoordinatorState(0, 1, MultiRingConfig(batching_enabled=True))
        coordinator.BATCH_MAX_BYTES = 250
        coordinator.record_promise("a0", quorum=1)
        for i in range(5):
            coordinator.enqueue(value(i, size=100))
        assignments = coordinator.next_assignments()
        assert len(assignments) < 5
        packed = assignments[0][1]
        assert isinstance(packed.payload, PackedValues)
        assert packed.size_bytes <= 300

    def test_rate_leveling_skips(self):
        config = MultiRingConfig(rate_interval=0.010, max_rate=1000.0)  # 10 per interval
        coordinator = CoordinatorState(0, 1, config)
        coordinator.record_promise("a0", quorum=1)
        coordinator.enqueue(value("v"))
        coordinator.next_assignments()
        skips = coordinator.skips_for_interval()
        assert skips == 9
        first, last = coordinator.allocate_skips(skips)
        assert last - first + 1 == 9
        # a fresh interval with no proposals wants the full quota
        assert coordinator.skips_for_interval() == 10

    @pytest.mark.parametrize("config, proposed, skips, quota", [
        (MultiRingConfig(), 0, 45, 45), (MultiRingConfig(), 40, 5, 45),
        (MultiRingConfig(), 60, 0, 45),
        (global_config(), 0, 40, 40), (global_config(), 40, 0, 40), (global_config(), 60, 0, 40),
    ], ids=["local-idle", "local-below", "local-above", "global-idle", "global-at", "global-above"])
    def test_interval_skips_top_up_to_the_paper_s_quota(self, config, proposed, skips, quota):
        """λ·Δ = 9000/s · 5 ms = 45 instances (local), 2000/s · 20 ms = 40 (global)."""
        coordinator = CoordinatorState(0, 1, config)
        coordinator.record_promise("a0", quorum=1)
        for i in range(proposed):
            coordinator.enqueue(value(i))
        assert len(coordinator.next_assignments()) == proposed
        assert coordinator.skips_for_interval() == skips
        # the interval counter restarts: an idle interval wants the full quota
        assert coordinator.skips_for_interval() == quota

    def test_no_rate_interval_means_no_skips(self):
        coordinator = CoordinatorState(0, 1, MultiRingConfig(rate_interval=None))
        coordinator.record_promise("a0", quorum=1)
        coordinator.enqueue(value("v"))
        coordinator.next_assignments()
        assert coordinator.skips_for_interval() == 0
        assert coordinator.skips_for_interval() == 0

    def test_allocate_skips_requires_positive_count(self):
        coordinator = CoordinatorState(0, 1, MultiRingConfig())
        with pytest.raises(ValueError):
            coordinator.allocate_skips(0)

    def test_skip_value_is_skip(self):
        assert CoordinatorState.skip_value().is_skip()

"""Tests of the deterministic merge and the rate-leveling parameters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.multiring.merge import DeterministicMerger, replay_streams
from repro.core.config import MultiRingConfig, global_config
from repro.paxos.messages import ProposalValue, SKIP
from repro.ringpaxos.coordinator import PackedValues


def value(payload, size=10):
    return ProposalValue(payload=payload, size_bytes=size)


def skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


class TestDeterministicMerger:
    def _merger(self, groups, m=1):
        out = []
        merger = DeterministicMerger(groups, messages_per_round=m,
                                     on_deliver=lambda g, i, v: out.append((g, v.payload)))
        return merger, out

    def test_single_group_passthrough(self):
        merger, out = self._merger([0])
        for i in range(5):
            merger.offer(0, i, value(i))
        assert [p for _, p in out] == [0, 1, 2, 3, 4]

    def test_round_robin_order_with_m_equal_one(self):
        merger, out = self._merger([0, 1])
        merger.offer(0, 0, value("a0"))
        merger.offer(0, 1, value("a1"))
        merger.offer(1, 0, value("b0"))
        merger.offer(1, 1, value("b1"))
        assert [p for _, p in out] == ["a0", "b0", "a1", "b1"]

    def test_m_greater_than_one_consumes_m_per_ring(self):
        merger, out = self._merger([0, 1], m=2)
        for i in range(4):
            merger.offer(0, i, value(f"a{i}"))
            merger.offer(1, i, value(f"b{i}"))
        assert [p for _, p in out] == ["a0", "a1", "b0", "b1", "a2", "a3", "b2", "b3"]

    def test_stalls_until_slow_ring_produces(self):
        merger, out = self._merger([0, 1])
        merger.offer(0, 0, value("a0"))
        merger.offer(0, 1, value("a1"))
        assert [p for _, p in out] == ["a0"]  # waiting for ring 1
        merger.offer(1, 0, value("b0"))
        assert [p for _, p in out] == ["a0", "b0", "a1"]

    def test_skips_unblock_but_deliver_nothing(self):
        merger, out = self._merger([0, 1])
        merger.offer(0, 0, value("a0"))
        merger.offer(1, 0, skip())
        merger.offer(0, 1, value("a1"))
        merger.offer(1, 1, skip())
        assert [p for _, p in out] == ["a0", "a1"]
        assert merger.delivered_count == 2
        # Both skips were consumed: ring 0 has the turn, nothing waits.
        assert merger._groups[merger._current_index] == 0
        assert not any(merger._queues.values())

    def test_merge_order_iterates_groups_by_ascending_id(self):
        merger, out = self._merger([7, 3])
        merger.offer(7, 0, value("high"))
        merger.offer(3, 0, value("low"))
        assert [p for _, p in out] == ["low", "high"]

    def test_packed_values_unpack_in_order(self):
        merger, out = self._merger([0])
        packed = ProposalValue(
            payload=PackedValues(values=[value("x"), value("y")]), size_bytes=20
        )
        merger.offer(0, 0, packed)
        assert [p for _, p in out] == ["x", "y"]
        assert merger.delivered_count == 2

    def test_unsubscribed_group_rejected(self):
        merger, _ = self._merger([0])
        with pytest.raises(KeyError):
            merger.offer(1, 0, value("x"))

    def test_round_boundary_tracking(self):
        merger, _ = self._merger([0, 1])
        assert merger.is_round_boundary()
        merger.offer(0, 0, value("a"))
        assert not merger.is_round_boundary()
        merger.offer(1, 0, value("b"))
        assert merger.is_round_boundary()

    def test_fast_forward_drops_consumed_positions(self):
        merger, out = self._merger([0, 1])
        merger.offer(0, 0, value("old-a"))
        merger.offer(0, 1, value("new-a"))
        merger.fast_forward({0: 0, 1: -1})
        merger.offer(1, 0, value("b0"))
        assert [p for _, p in out] == ["old-a", "new-a", "b0"]

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DeterministicMerger([])
        with pytest.raises(ValueError):
            DeterministicMerger([0], messages_per_round=0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_interleaving_invariance(self, data):
        """Property: the delivery order is independent of offer interleaving."""
        group_count = data.draw(st.integers(min_value=1, max_value=3))
        per_group = data.draw(st.integers(min_value=1, max_value=6))
        groups = list(range(group_count))

        def feed(order):
            merger, out = self._merger(groups)
            for g, i in order:
                merger.offer(g, i, value(f"g{g}i{i}"))
            return [p for _, p in out]

        base_order = [(g, i) for i in range(per_group) for g in groups]
        shuffled = data.draw(st.permutations(base_order))
        # Per-ring instance order must be preserved when feeding, as the ring
        # learner guarantees: stable-sort the permutation per group.
        per_group_sorted = []
        seen = {g: 0 for g in groups}
        for g, _ in shuffled:
            per_group_sorted.append((g, seen[g]))
            seen[g] += 1
        assert feed(base_order) == feed(per_group_sorted)


class TestReplayStreams:
    """The merge stage: offline replay of recorded per-ring streams."""

    def test_replay_matches_online_merger(self):
        """Replay equals an online merger fed the same streams, any interleaving."""
        streams = {
            0: [(0, value("a0")), (1, value("a1")), (2, skip()), (3, value("a3"))],
            2: [(0, skip()), (1, value("c1")), (2, value("c2"))],
        }
        replayed = [
            (g, v.payload) for g, _, v in replay_streams(streams, messages_per_round=2)
        ]
        # Online reference: interleave offers the other way around.
        out = []
        merger = DeterministicMerger([0, 2], messages_per_round=2,
                                     on_deliver=lambda g, i, v: out.append((g, v.payload)))
        for instance, v in streams[2]:
            merger.offer(2, instance, v)
        for instance, v in streams[0]:
            merger.offer(0, instance, v)
        assert replayed == out
        # Round-robin shape: M=2 from ring 0, then M=2 from ring 2 (skips
        # consumed silently but counted).
        assert replayed == [(0, "a0"), (0, "a1"), (2, "c1"), (0, "a3"), (2, "c2")]

    def test_replay_unpacks_batches_and_counts_skips(self):
        batch = ProposalValue(payload=PackedValues([value("x"), value("y")]), size_bytes=20)
        streams = {
            1: [(0, batch), (1, skip())],
            5: [(0, value("z"))],
        }
        replayed = [(g, v.payload) for g, _, v in replay_streams(streams)]
        assert replayed == [(1, "x"), (1, "y"), (5, "z")]

    def test_replay_requires_a_stream(self):
        with pytest.raises(ValueError):
            replay_streams({})

    def test_replay_stalls_on_exhausted_ring(self):
        """An idle ring with no recorded skips stalls the round-robin — the
        same position an online merger would wait at."""
        streams = {0: [(0, value("a0")), (1, value("a1"))], 1: [(0, value("b0"))]}
        replayed = [(g, v.payload) for g, _, v in replay_streams(streams)]
        assert replayed == [(0, "a0"), (1, "b0"), (0, "a1")]


class TestRateLevelingParameters:
    def test_paper_settings_expect_45_and_40_instances_per_interval(self):
        for config, expected in ((MultiRingConfig(), 45.0), (global_config(), 40.0)):
            assert config.max_rate * config.rate_interval == pytest.approx(expected)

    @pytest.mark.parametrize("changes", [
        {"rate_interval": 0.0}, {"rate_interval": -0.005}, {"max_rate": -1.0},
    ], ids=["zero-delta", "negative-delta", "negative-lambda"])
    def test_invalid_parameters(self, changes):
        with pytest.raises(ValueError):
            MultiRingConfig(**changes)
        with pytest.raises(ValueError):
            MultiRingConfig().with_(**changes)

    def test_disabled_interval_and_zero_rate_are_valid(self):
        assert MultiRingConfig(rate_interval=None).rate_interval is None
        assert MultiRingConfig(max_rate=0.0).max_rate == 0.0

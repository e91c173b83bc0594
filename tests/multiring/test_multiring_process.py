"""Integration tests of Multi-Ring Paxos processes (multiple rings, one learner)."""

import pytest

from repro.core import AtomicMulticast, MultiRingConfig

from tests.conftest import RecordingProcess, build_two_ring_system


class TestMultiRingDelivery:
    def test_learner_of_two_rings_interleaves_deterministically(self):
        system, shared, solo = build_two_ring_system()
        for i in range(10):
            shared[0].multicast(0, payload=f"r0-{i}", size_bytes=64)
            shared[1].multicast(1, payload=f"r1-{i}", size_bytes=64)
        system.run(until=2.0)
        sequences = [p.delivered_payloads() for p in shared]
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) == 20

    def test_single_ring_subscriber_sees_only_its_ring(self):
        system, shared, solo = build_two_ring_system()
        shared[0].multicast(0, payload="only-ring0", size_bytes=64)
        shared[0].multicast(1, payload="only-ring1", size_bytes=64)
        system.run(until=2.0)
        assert solo.delivered_payloads() == ["only-ring1"]
        assert solo.subscribed_groups() == [1]

    def test_rate_leveling_keeps_merge_going_when_one_ring_is_idle(self):
        system, shared, solo = build_two_ring_system()
        # Only ring 0 carries traffic; ring 1 must emit skips so learners of
        # both rings still deliver ring 0's values.
        for i in range(10):
            shared[0].multicast(0, payload=f"v{i}", size_bytes=64)
        system.run(until=2.0)
        assert len(shared[1].delivered_payloads(0)) == 10
        # Ring 1's coordinator (whoever holds it) proposed skip instances.
        coordinator = system.env.actor(system.ring(1).coordinator)
        decided = coordinator.node(1).acceptor.decided_from(0)
        assert any(value.is_skip() for _instance, value in decided)

    def test_without_rate_leveling_an_idle_ring_stalls_delivery(self):
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=6, config=config)
        processes = [RecordingProcess(system.env, f"q{i}") for i in range(3)]
        system.create_ring(0, [(p.name, "pal") for p in processes])
        system.create_ring(1, [(p.name, "pal") for p in processes])
        system.start()
        processes[0].multicast(0, payload="first", size_bytes=64)
        processes[0].multicast(0, payload="stuck-behind-idle-ring", size_bytes=64)
        system.run(until=2.0)
        # M=1: after consuming one instance from ring 0 the merge waits for an
        # instance from ring 1, which never produces one — so the second ring-0
        # value cannot be delivered.  This is exactly the stall that rate
        # leveling (skip instances) prevents.
        assert processes[1].delivered_payloads() == ["first"]

    def test_messages_per_round_parameter(self):
        system, shared, solo = build_two_ring_system(messages_per_round=2)
        for p in shared:
            assert p.merger._groups == [0, 1]
        for i in range(4):
            shared[0].multicast(0, payload=f"a{i}", size_bytes=64)
            shared[0].multicast(1, payload=f"b{i}", size_bytes=64)
        system.run(until=2.0)
        delivered = shared[2].delivered_payloads()
        assert len(delivered) == 8
        # With M=2 the merge consumes two ring-0 values before ring-1 values.
        first_four = delivered[:4]
        assert first_four[0].startswith("a") and first_four[1].startswith("a")

    def test_a_process_takes_its_config_from_the_first_ring_it_joins(self):
        config = MultiRingConfig(messages_per_round=3, rate_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        p = RecordingProcess(system.env, "p0")
        assert p.config is None
        system.create_ring(0, [(p.name, "pal")])
        system.create_ring(1, [(p.name, "pal")])
        assert p.config is config
        assert p.merger._m == 3
        system.start()
        p.crash()
        p.restart()
        assert p.merger._m == 3  # the restarted merger keeps the deployment's M

    def test_cannot_join_same_ring_twice(self):
        config = MultiRingConfig(rate_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        p = RecordingProcess(system.env, "p0")
        ring = system.create_ring(0, [(p.name, "pal")])
        with pytest.raises(ValueError):
            p.join_ring(ring, config)

    def test_multicast_to_unknown_group_rejected(self):
        config = MultiRingConfig(rate_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        p = RecordingProcess(system.env, "p0")
        system.create_ring(0, [(p.name, "pal")])
        with pytest.raises(KeyError):
            p.multicast(5, payload="x", size_bytes=10)

    def test_delivered_position_tracks_per_group(self):
        system, shared, solo = build_two_ring_system()
        shared[0].multicast(0, payload="x", size_bytes=64)
        system.run(until=1.0)
        assert shared[0].delivered_position(0) >= 0
        assert shared[0].delivered_position(5) == -1


class _CheckpointedAt(RecordingProcess):
    """A learner that reports a fixed checkpointed instance to trim queries."""

    SAFE = 5

    def safe_instance_for(self, group_id):
        return self.SAFE


class TestTrimReports:
    """What a learner answers the coordinator's periodic trim query."""

    @pytest.mark.parametrize("learner_cls, trimmed", [(RecordingProcess, -1), (_CheckpointedAt, 5)])
    def test_only_a_learner_that_checkpointed_lets_acceptors_trim(self, learner_cls, trimmed):
        """A plain process reports nothing checkpointed (-1), which blocks trimming."""
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=0.2)
        system = AtomicMulticast(seed=3, config=config)
        processes = [learner_cls(system.env, f"n{i}") for i in range(3)]
        system.create_ring(0, [(p.name, "pal") for p in processes])
        system.start()
        for i in range(20):
            processes[0].multicast(0, payload=i, size_bytes=64)
        system.run(until=1.0)
        assert len(processes[2].delivered) == 20
        assert {p.node(0).acceptor.trimmed_up_to for p in processes} == {trimmed}

"""Tests of the dLog replica and the deployed dLog service."""

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import Command
from repro.dlog import DLogReplica, DLogService
from repro.sim.disk import StorageMode


def make_replica():
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=1, config=config)
    return system, DLogReplica(system.env, "d0", config=config)


def total_appends(replica):
    """Records appended across every log the replica hosts."""
    return sum(log.next_position for log in replica.logs.values())


class TestDLogReplica:
    def test_append_trim(self):
        system, replica = make_replica()
        result = replica.apply_command(0, Command(op="append", args=(1024,)))
        assert result == {"log": 0, "position": 0}
        replica.apply_command(0, Command(op="append", args=(1024,)))
        trim = replica.apply_command(0, Command(op="trim", args=(0,)))
        assert trim["trimmed_up_to"] == 0 and trim["segment_bytes"] == 1024
        assert replica.log_for(0).trimmed_up_to == 0

    def test_each_group_backs_its_own_log(self):
        system, replica = make_replica()
        replica.apply_command(0, Command(op="append", args=(100,)))
        replica.apply_command(1, Command(op="append", args=(100,)))
        replica.apply_command(1, Command(op="append", args=(100,)))
        assert replica.log_for(0).next_position == 1
        assert replica.log_for(1).next_position == 2
        assert total_appends(replica) == 3

    def test_multi_append_is_applied_per_delivering_group(self):
        system, replica = make_replica()
        result = replica.apply_command(2, Command(op="multi-append", args=(100,)))
        assert result["log"] == 2 and result["position"] == 0

    def test_unknown_operation_rejected(self):
        system, replica = make_replica()
        with pytest.raises(ValueError):
            replica.apply_command(0, Command(op="compact"))

    def test_read_is_not_an_ordered_dlog_operation(self):
        """The workloads append and trim only; a read is refused by name, not ignored."""
        system, replica = make_replica()
        replica.apply_command(0, Command(op="append", args=(100,)))
        with pytest.raises(ValueError, match="unknown dLog operation: read"):
            replica.apply_command(0, Command(op="read", args=(0,)))
        assert total_appends(replica) == 1

    def test_snapshot_roundtrip(self):
        system, replica = make_replica()
        replica.apply_command(0, Command(op="append", args=(100,)))
        state, size = replica.snapshot_state()
        replica.reset_state()
        assert total_appends(replica) == 0
        replica.install_state_snapshot(state)
        assert replica.log_for(0).next_position == 1

    def test_snapshot_roundtrip_across_logs(self):
        """A snapshot restores every log's contents, trim state and append
        positions on a fresh replica, and appends continue where it left off."""
        system, replica = make_replica()
        for _ in range(3):
            replica.apply_command(0, Command(op="append", args=(512,)))
        for _ in range(2):
            replica.apply_command(1, Command(op="append", args=(256,)))
        replica.apply_command(0, Command(op="trim", args=(0,)))

        state, size = replica.snapshot_state()
        assert size >= 3 * 512 + 2 * 256 - 512  # trimmed segment excluded

        restored = DLogReplica(system.env, "d1", config=replica.config)
        restored.install_state_snapshot(state)
        # Contents and positions survive the round trip exactly.
        assert total_appends(restored) == total_appends(replica) == 5
        assert restored.log_for(0).next_position == 3
        assert restored.log_for(1).next_position == 2
        assert restored.log_for(0).trimmed_up_to == 0
        assert restored.log_for(0).snapshot()["cache"] == replica.log_for(0).snapshot()["cache"]
        result = restored.apply_command(0, Command(op="append", args=(512,)))
        assert result == {"log": 0, "position": 3}
        # The snapshot is a deep copy: the restored replica's appends do not leak.
        assert replica.log_for(0).next_position == 3

    def test_snapshot_is_isolated_from_source_mutations(self):
        """Appending to the source after ``snapshot_state`` must not change
        what a restore observes (the checkpointer snapshots asynchronously)."""
        system, replica = make_replica()
        replica.apply_command(0, Command(op="append", args=(100,)))
        state, _ = replica.snapshot_state()
        replica.apply_command(0, Command(op="append", args=(100,)))
        restored = DLogReplica(system.env, "d2", config=replica.config)
        restored.install_state_snapshot(state)
        assert restored.log_for(0).next_position == 1
        assert sorted(restored.log_for(0).snapshot()["cache"]) == [0]


def build_dlog(logs=(0, 1), common_ring=None, seed=5, sync=False, replica_count=2):
    config = MultiRingConfig(
        storage_mode=StorageMode.SYNC_HDD if sync else StorageMode.ASYNC_SSD,
        rate_interval=0.005,
        max_rate=500.0,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=seed, config=config)
    service = DLogService(
        system,
        log_ids=list(logs),
        acceptors_per_log=3,
        replica_count=replica_count,
        common_ring_id=common_ring,
        dedicated_disks=sync,
        config=config,
    )
    return system, service


class TestDLogService:
    def test_appends_complete_and_replicas_agree(self):
        system, service = build_dlog()
        client = service.create_append_client("c", concurrency=4, append_bytes=512)
        system.start()
        system.run(until=2.0)
        assert client.completed > 20
        first, second = service.replicas
        assert total_appends(first) == total_appends(second)
        assert total_appends(first) >= client.completed

    def test_positions_are_identical_across_replicas(self):
        system, service = build_dlog()
        # A bounded request count lets the system quiesce, so both replicas
        # must end at exactly the same log tails.
        client = service.create_append_client("c", concurrency=2, append_bytes=512,
                                               max_requests=200)
        system.start()
        system.run(until=5.0)
        assert client.completed == 200
        first, second = service.replicas
        for log_id in service.log_ids:
            assert first.log_for(log_id).next_position == second.log_for(log_id).next_position

    def test_multi_append_waits_for_every_log(self):
        system, service = build_dlog()
        client = service.create_append_client(
            "c", concurrency=2, append_bytes=256, multi_append_every=3
        )
        system.start()
        system.run(until=2.0)
        assert client.completed > 10
        first = service.replicas[0]
        assert first.log_for(0).next_position > 0
        assert first.log_for(1).next_position > 0

    def test_common_ring_subscription(self):
        system, service = build_dlog(common_ring=9)
        for replica in service.replicas:
            assert 9 in replica.subscribed_groups()
        client = service.create_append_client("c", concurrency=2)
        system.start()
        system.run(until=2.0)
        assert client.completed > 10

    def test_requires_logs(self):
        system = AtomicMulticast(seed=1)
        with pytest.raises(ValueError):
            DLogService(system, log_ids=[])

    def test_dedicated_disks_create_one_device_per_ring(self):
        system, service = build_dlog(sync=True)
        node0_disk = system.env.actor("dlog0-node0").node(0).acceptor.log.disk
        node1_disk = system.env.actor("dlog1-node0").node(1).acceptor.log.disk
        assert node0_disk is not None and node1_disk is not None
        assert node0_disk is not node1_disk

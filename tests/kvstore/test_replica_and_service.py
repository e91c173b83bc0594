"""Tests of the MRP-Store replica state machine and the service builder."""

import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import Command
from repro.kvstore import HashPartitioner, MRPStoreReplica, MRPStoreService
from repro.workloads import preload_keys, update_only_workload
from tests.conftest import store_client


def make_replica():
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=1, config=config)
    return MRPStoreReplica(system.env, "r0")


class TestReplicaStateMachine:
    def test_apply_insert_read_update_scan(self):
        replica = make_replica()
        assert replica.apply_command(0, Command(op="insert", args=("k", "v", 100)))["inserted"]
        assert replica.apply_command(0, Command(op="read", args=("k",)))["found"]
        assert replica.apply_command(0, Command(op="update", args=("k", "v2", 150)))["updated"]
        scan = replica.apply_command(0, Command(op="scan", args=("a", "z", None)))
        assert scan["count"] == 1 and scan["bytes"] == 150
        assert not replica.apply_command(0, Command(op="read", args=("missing",)))["found"]

    def test_unknown_operation_rejected(self):
        replica = make_replica()
        with pytest.raises(ValueError):
            replica.apply_command(0, Command(op="vacuum"))

    def test_delete_is_not_a_table_1_operation(self):
        """No workload deletes; a delete is refused by name, not ignored."""
        replica = make_replica()
        replica.apply_command(0, Command(op="insert", args=("k", "v", 100)))
        with pytest.raises(ValueError, match="unknown MRP-Store operation: delete"):
            replica.apply_command(0, Command(op="delete", args=("k",)))
        assert replica.store.read("k") is not None

    def test_snapshot_roundtrip(self):
        replica = make_replica()
        replica.apply_command(0, Command(op="insert", args=("k", "v", 100)))
        state, size = replica.snapshot_state()
        assert size >= 100
        replica.reset_state()
        assert replica.entry_count() == 0
        replica.install_state_snapshot(state)
        assert replica.entry_count() == 1


def build_store(partitions=2, global_ring=False, seed=3):
    config = MultiRingConfig(rate_interval=0.005, max_rate=500.0,
                             checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=seed, config=config)
    service = MRPStoreService(
        system,
        partition_groups=list(range(partitions)),
        acceptors_per_partition=3,
        replicas_per_partition=2,
        global_ring_id=40 if global_ring else None,
    )
    return system, service


class TestServiceDeployment:
    def test_preload_places_keys_on_the_owning_partition_only(self):
        system, service = build_store()
        service.preload(preload_keys(100))
        for group in service.groups:
            for replica in service.replicas[group]:
                for key in replica.store.snapshot():
                    assert service.partitioner.group_for_key(key) == group

    def test_replicas_of_a_partition_converge(self):
        system, service = build_store()
        service.preload(preload_keys(100))
        rng = random.Random(7)
        client = store_client(service, "c", update_only_workload(rng, key_count=100), concurrency=4)
        system.start()
        system.run(until=2.0)
        assert client.completed > 50
        for group in service.groups:
            first, second = service.replicas[group]
            assert first.commands_applied == second.commands_applied

    def test_reads_and_scans_complete(self):
        system, service = build_store()
        service.preload(preload_keys(50))
        rng = random.Random(9)

        def mixed(sequence):
            if sequence % 5 == 4:
                return ("scan", "key0000000000", 0, "key0000000049")
            key = f"key{rng.randint(0, 49):010d}"
            if rng.random() < 0.1:
                return ("update", key, 1024, None)
            return ("read", key, 0, None)

        client = store_client(service, "c", mixed, concurrency=2)
        system.start()
        system.run(until=2.0)
        assert client.completed > 20

    def test_global_ring_orders_across_partitions(self):
        system, service = build_store(global_ring=True)
        assert service.global_ring_id == 40
        # every replica subscribes to its partition ring plus the global ring
        for group in service.groups:
            for replica in service.replicas[group]:
                assert set(replica.subscribed_groups()) == {group, 40}
        service.preload(preload_keys(60))
        rng = random.Random(11)
        client = store_client(service, "c", update_only_workload(rng, key_count=60), concurrency=4)
        system.start()
        system.run(until=2.0)
        assert client.completed > 20

    def test_frontend_map_prefers_site(self):
        system, service = build_store()
        mapping = service.frontend_map()
        assert set(mapping) == set(service.groups)
        for group, name in mapping.items():
            assert name.startswith(f"kv{group}-node")

    def test_every_member_reads_the_deployment_s_config(self):
        system, service = build_store(global_ring=True)
        assert service.config is system.config
        for group in service.groups:
            members = service.replicas[group] + service.frontends[group]
            assert all(member.config is system.config for member in members)
            for member in members:
                assert all(member.node(r).config is system.config for r in member.ring_ids())

    def test_requires_at_least_one_partition(self):
        system = AtomicMulticast(seed=1)
        with pytest.raises(ValueError):
            MRPStoreService(system, partition_groups=[])


class TestPartitionPeers:
    """Section 5.2: a recovering replica installs checkpoints only from the
    replicas subscribed to exactly its groups — the peer list recovery uses
    when nobody passes one (`StateMachineReplica._default_partition_peers`)."""

    @staticmethod
    def fig4_store():
        # Figure 4's globally ordered MRP-Store, built and never run:
        # partitions 0 and 1, two replicas each, global ring 9.
        config = MultiRingConfig(checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        service = MRPStoreService(
            system,
            partition_groups=[0, 1],
            replicas_per_partition=2,
            global_ring_id=9,
        )
        return system, service

    def test_peers_are_the_partition_not_every_learner_of_a_shared_ring(self):
        system, service = self.fig4_store()
        replica = service.replicas[0][0]
        assert replica.subscribed_groups() == [0, 9]
        # kv1-* learn from ring 9 too, but their partition is {1, 9}.
        assert service.replicas[1][0].subscribed_groups() == [1, 9]
        assert replica._default_partition_peers() == ["kv0-replica1"]
        assert service.replicas[1][1]._default_partition_peers() == ["kv1-replica0"]

    def test_learner_of_a_subset_of_the_groups_is_not_a_peer(self):
        system, service = self.fig4_store()
        observer = MRPStoreReplica(system.env, "kv0-observer")
        system.add_to_ring(0, ("kv0-observer", "l"))
        assert observer.subscribed_groups() == [0]
        assert service.replicas[0][0]._default_partition_peers() == ["kv0-replica1"]
        assert observer._default_partition_peers() == []

    def test_peers_are_sorted_and_exclude_the_replica_itself(self):
        system, service = self.fig4_store()
        # A late joiner with the partition's exact subscriptions is a peer; it
        # comes last in ring order but first by name.
        backup = MRPStoreReplica(system.env, "kv0-backup")
        system.add_to_ring(0, ("kv0-backup", "l"))
        system.add_to_ring(9, ("kv0-backup", "l"))
        assert service.replicas[0][0]._default_partition_peers() == ["kv0-backup", "kv0-replica1"]
        assert service.replicas[0][1]._default_partition_peers() == ["kv0-backup", "kv0-replica0"]
        assert backup._default_partition_peers() == ["kv0-replica0", "kv0-replica1"]


class TestPreloadIsTheInitialDurableImage:
    """Regression (chaos seed 60): the preload bypasses ordering, so nothing
    but the replica itself can bring it back after a crash — a replica that
    crashed before its first checkpoint used to recover an empty database and
    answer every later update with "no such key" for good."""

    @staticmethod
    def _build():
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=13, config=config)
        service = MRPStoreService(
            system, partition_groups=[0], acceptors_per_partition=3,
            replicas_per_partition=2,
        )
        service.preload(preload_keys(40))
        return system, service

    def test_crash_before_any_checkpoint_then_restart_converges(self):
        system, service = self._build()
        client = store_client(
            service, "load", update_only_workload(random.Random(5), key_count=40, value_bytes=300),
            concurrency=2, max_requests=300,
        )
        victim, survivor = service.replicas[0]
        system.start()
        system.run(until=0.3)
        system.crash_process(victim.name)
        assert victim.entry_count() == 40  # applied updates are gone, the database is not
        assert all(entry.size_bytes == 1024 for entry in victim.store.snapshot().values())
        system.run(until=0.5)
        system.restart_process(victim.name)
        system.run(until=4.0)
        assert client.completed == 300
        assert victim.checkpoint_store.latest() is None  # recovered by replay alone
        assert survivor.commands_applied == 300
        assert victim.store.snapshot() == survivor.store.snapshot()
        assert any(entry.size_bytes == 300 for entry in victim.store.snapshot().values())

    def test_reset_restores_every_preload_and_nothing_else(self):
        system, service = self._build()
        service.preload({"late-a": 7, "late-b": 9})  # a second preload adds to the image
        (replica, _) = service.replicas[0]
        replica.apply_command(0, Command(op="insert", args=("applied", None, 5)))
        replica.apply_command(0, Command(op="update", args=("late-a", None, 70)))
        replica.reset_state()
        assert replica.entry_count() == 42 and replica.store.read("applied") is None
        assert replica.store.read("late-a").size_bytes == 7

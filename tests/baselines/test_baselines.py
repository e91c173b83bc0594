"""Tests of the comparator systems: eventual store, single server, sequencer log."""

import pytest

from repro.baselines.eventual import EventualStoreService
from repro.baselines.seqlog import SequencerLogService
from repro.baselines.singleserver import SingleServerStore
from repro.core.client import ClosedLoopClient, Command
from repro.kvstore.partitioning import HashPartitioner
from repro.sim.actor import Environment
from repro.sim.network import Network
from repro.sim.topology import single_datacenter


def make_env(seed=1):
    env = Environment(seed=seed)
    Network(env, single_datacenter(), jitter_fraction=0.0)
    return env


def kv_factory(op="update", key_count=50, groups=(0, 1, 2)):
    partitioner = HashPartitioner(list(groups))

    def factory(sequence):
        key = f"key{sequence % key_count:06d}"
        group = partitioner.group_for_key(key)
        if op == "update":
            command = Command(op="update", args=(key, None, 100), group_id=group, size_bytes=148)
        else:
            command = Command(op="read", args=(key,), group_id=group, size_bytes=48)
        return [command], [group]

    return factory, partitioner


class TestEventualStore:
    def test_reads_and_writes_complete_with_low_latency(self):
        env = make_env()
        service = EventualStoreService(env, partition_groups=[0, 1, 2], replication_factor=3)
        factory, partitioner = kv_factory()
        service.partitioner = partitioner
        client = ClosedLoopClient(env, "c", service.frontend_map(), factory, concurrency=4,
                                  metric_prefix="ec")
        for actor in env.actors():
            actor.on_start()
        env.run(until=1.0)
        assert client.completed > 100
        assert env.metrics.latency("ec.latency").mean_ms() < 5.0

    def test_writes_eventually_reach_all_replicas(self):
        env = make_env()
        service = EventualStoreService(env, partition_groups=[0], replication_factor=3)
        coordinator = service.replicas[0][0]
        command = Command(op="insert", args=("k", None, 10), group_id=0, client="")
        from repro.net.message import ClientRequest
        coordinator.deliver("tester", ClientRequest(command=command, client=""))
        env.run(until=1.0)
        for replica in service.replicas[0]:
            assert replica.store.read("k") is not None

    def test_concurrent_writes_can_diverge_in_order(self):
        env = make_env()
        service = EventualStoreService(env, partition_groups=[0], replication_factor=2)
        service.preload({"k": 10})
        a, b = service.replicas[0]
        from repro.net.message import ClientRequest
        # Two clients write the same key through different coordinators: with
        # no ordering layer, each replica applies its local write first and
        # the other one last, so the replicas end up disagreeing.
        cmd1 = Command(op="update", args=("k", 1, 10), group_id=0, command_id=101)
        cmd2 = Command(op="update", args=("k", 2, 10), group_id=0, command_id=202)
        a.deliver("c1", ClientRequest(command=cmd1))
        b.deliver("c2", ClientRequest(command=cmd2))
        env.run(until=1.0)
        assert a.store.read("k").value == 2
        assert b.store.read("k").value == 1

    def test_preload(self):
        env = make_env()
        service = EventualStoreService(env, partition_groups=[0, 1], replication_factor=2)
        service.preload({"a": 10, "b": 10, "c": 10})
        total = sum(len(r.store) for group in service.groups for r in service.replicas[group])
        assert total == 2 * 3  # every key on both replicas of exactly one partition

    def test_invalid_replication_factor(self):
        with pytest.raises(ValueError):
            EventualStoreService(make_env(), partition_groups=[0], replication_factor=0)


class TestSingleServerStore:
    def test_operations_complete_and_are_strongly_consistent(self):
        env = make_env()
        server = SingleServerStore(env, "sql")
        server.preload({f"key{i:06d}": 100 for i in range(50)})
        factory, _ = kv_factory()
        client = ClosedLoopClient(env, "c", {0: "sql", 1: "sql", 2: "sql"}, factory,
                                  concurrency=4, metric_prefix="sql")
        for actor in env.actors():
            actor.on_start()
        env.run(until=1.0)
        assert client.completed > 100

    def test_throughput_plateaus_with_more_clients(self):
        def run(concurrency):
            env = make_env(seed=concurrency)
            server = SingleServerStore(env, "sql")
            factory, _ = kv_factory()
            client = ClosedLoopClient(env, "c", {g: "sql" for g in (0, 1, 2)}, factory,
                                      concurrency=concurrency, metric_prefix="sql")
            for actor in env.actors():
                actor.on_start()
            env.run(until=1.0)
            return client.completed

        low, high = run(2), run(50)
        assert high <= low * 3  # the single server saturates instead of scaling


class TestSequencerLog:
    def test_appends_wait_for_batch_and_quorum(self):
        env = make_env()
        service = SequencerLogService(env, ensemble_size=3)
        service.leader.BATCH_WINDOW = 0.010

        def factory(sequence):
            command = Command(op="append", args=(), group_id=0, size_bytes=1024 + 40)
            return [command], [0]

        client = ClosedLoopClient(env, "c", service.frontend_map([0]), factory,
                                  concurrency=8, metric_prefix="bk")
        for actor in env.actors():
            actor.on_start()
        env.run(until=2.0)
        assert client.completed > 20
        # latency includes the batching window
        assert env.metrics.latency("bk.latency").mean_ms() >= 5.0

    def test_storage_nodes_write_batches_synchronously(self):
        env = make_env()
        service = SequencerLogService(env, ensemble_size=3)

        def factory(sequence):
            return [Command(op="append", args=(), group_id=0, size_bytes=1024)], [0]

        client = ClosedLoopClient(env, "c", service.frontend_map([0]), factory,
                                  concurrency=4, metric_prefix="bk")
        for actor in env.actors():
            actor.on_start()
        env.run(until=1.0)
        assert all(node.disk.write_count > 0 for node in service.storage_nodes)

    def test_leader_requires_storage_nodes(self):
        from repro.baselines.seqlog import SequencerLogLeader
        with pytest.raises(ValueError):
            SequencerLogLeader(make_env(), "leader", storage_nodes=[])

"""End-to-end scenarios combining services, failures and geo-distribution."""

import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig, global_config
from repro.dlog import DLogService
from repro.kvstore import MRPStoreService
from repro.sim.topology import ec2_global
from repro.workloads import preload_keys, update_only_workload
from tests.conftest import store_client


class TestGeoDistributedStore:
    def test_regional_partitions_with_global_ring(self):
        regions = ["us-west-2", "us-west-1"]
        config = global_config().with_(checkpoint_interval=None, trim_interval=None,
                                       batching_enabled=True)
        system = AtomicMulticast(topology=ec2_global(regions), config=config, seed=17)
        service = MRPStoreService(
            system,
            partition_groups=[0, 1],
            acceptors_per_partition=3,
            replicas_per_partition=1,
            site_for_partition={0: regions[0], 1: regions[1]},
            global_ring_id=50,
        )
        service.preload(preload_keys(100))
        rng = random.Random(17)
        client = store_client(
            service, "geo-client", update_only_workload(rng, key_count=100), concurrency=4,
            site=regions[0],
        )
        system.start()
        system.run(until=6.0)
        assert client.completed > 10
        # cross-region latency is visible but bounded by a couple of WAN rounds
        latency = system.env.metrics.latency("geo-client.latency")
        assert 0.001 < latency.mean() < 0.5

    def test_regions_progress_independently(self):
        regions = ["us-west-2", "us-east-1"]
        config = global_config().with_(checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(topology=ec2_global(regions), config=config, seed=19)
        service = MRPStoreService(
            system,
            partition_groups=[0, 1],
            acceptors_per_partition=3,
            replicas_per_partition=1,
            site_for_partition={0: regions[0], 1: regions[1]},
            global_ring_id=50,
        )
        rng = random.Random(19)
        from repro.core.client import ClosedLoopClient
        from repro.kvstore.client import MRPStoreCommands, kv_request_factory
        from repro.kvstore.partitioning import HashPartitioner

        clients = []
        for group, region in enumerate(regions):
            commands = MRPStoreCommands(HashPartitioner([group]))
            factory = kv_request_factory(
                commands, update_only_workload(rng, key_count=50, key_prefix=f"r{group}-")
            )
            clients.append(ClosedLoopClient(
                system.env, f"client-{region}",
                frontends_by_group=service.frontend_map(preferred_site=region),
                request_factory=factory, concurrency=2, site=region,
                metric_prefix=f"client-{region}",
            ))
        system.start()
        system.run(until=6.0)
        assert all(c.completed > 5 for c in clients)


class TestMixedServiceDeployment:
    @pytest.mark.slow
    def test_kvstore_and_dlog_share_one_deployment(self):
        config = MultiRingConfig(rate_interval=0.005, max_rate=500.0,
                                 checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=23, config=config)
        store = MRPStoreService(system, partition_groups=[0], replicas_per_partition=2)
        log = DLogService(system, log_ids=[10], acceptors_per_log=2, replica_count=2)
        store.preload(preload_keys(50))
        rng = random.Random(23)
        kv_client = store_client(store, "kv-client", update_only_workload(rng, key_count=50),
                                 concurrency=2)
        log_client = log.create_append_client("log-client", concurrency=2)
        system.start()
        system.run(until=3.0)
        assert kv_client.completed > 20
        assert log_client.completed > 20


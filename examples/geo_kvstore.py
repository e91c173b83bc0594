#!/usr/bin/env python
"""A geo-replicated MRP-Store deployment across EC2-like regions.

Reproduces the shape of the paper's horizontal-scalability scenario
(Section 8.4.2) at example scale: one partition per region, a global ring
subscribed by every replica, and per-region clients updating only their local
partition.  Prints per-region throughput and latency.

Run with:  python examples/geo_kvstore.py
"""

from __future__ import annotations

import random

from repro.core import AtomicMulticast, global_config
from repro.core.client import ClosedLoopClient
from repro.kvstore import HashPartitioner, MRPStoreService
from repro.kvstore.client import MRPStoreCommands, kv_request_factory
from repro.sim.topology import ec2_global
from repro.workloads import preload_keys, update_only_workload

REGIONS = ["us-west-2", "us-west-1", "us-east-1"]
GLOBAL_RING = 50


def main() -> None:
    config = global_config().with_(
        batching_enabled=True, checkpoint_interval=None, trim_interval=None
    )
    system = AtomicMulticast(topology=ec2_global(REGIONS), config=config, seed=7)

    service = MRPStoreService(
        system,
        partition_groups=list(range(len(REGIONS))),
        acceptors_per_partition=3,
        replicas_per_partition=1,
        site_for_partition={g: REGIONS[g] for g in range(len(REGIONS))},
        global_ring_id=GLOBAL_RING,
    )
    service.preload(preload_keys(1000))

    clients = []
    for group, region in enumerate(REGIONS):
        rng = random.Random(group)
        workload = update_only_workload(rng, key_count=1000, key_prefix=f"r{group}-key")
        commands = MRPStoreCommands(HashPartitioner([group]))
        clients.append(ClosedLoopClient(
            system.env,
            f"client-{region}",
            frontends_by_group=service.frontend_map(preferred_site=region),
            request_factory=kv_request_factory(commands, workload),
            concurrency=8,
            site=region,
            metric_prefix=f"client-{region}",
        ))

    print(f"running a {len(REGIONS)}-region deployment for 10 simulated seconds...")
    system.start()
    system.run(until=2.0)           # warm-up
    system.env.metrics.reset_all()
    start = system.env.now
    system.run(until=start + 8.0)   # measurement
    end = system.env.now

    total = 0.0
    print(f"{'region':>12}  {'ops/s':>10}  {'mean latency (ms)':>18}")
    for region in REGIONS:
        throughput = system.env.metrics.throughput(f"client-{region}.throughput").rate(start, end)
        latency = system.env.metrics.latency(f"client-{region}.latency").mean_ms()
        total += throughput
        print(f"{region:>12}  {throughput:>10.0f}  {latency:>18.1f}")
    print(f"{'aggregate':>12}  {total:>10.0f}")
    print("\nadding a region adds its own throughput; local latency stays flat —")
    print("this is the paper's horizontal-scalability argument (Figure 7).")


if __name__ == "__main__":
    main()

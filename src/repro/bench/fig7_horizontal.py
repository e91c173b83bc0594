"""Figure 7 — horizontal scalability of MRP-Store across EC2-like regions.

MRP-Store is deployed over up to four regions (us-west-2, us-west-1,
us-east-1, eu-west-1).  Each region hosts one ring (one partition) with a
replica and three proposers/acceptors, plus a client on a separate machine;
every replica additionally subscribes to a global ring spanning all regions.
Clients send 1 KB update commands to their local partition only, batched into
32 KB packets; the cross-datacenter Multi-Ring Paxos parameters are used
(M=1, Δ=20 ms, λ=2000).  The figure reports aggregate throughput with the
relative increment per added region and the latency CDF measured in
us-west-2 (Section 8.4.2).

Expected shape: aggregate throughput grows about linearly with regions
because local rings commit at local latency and regions do not interfere;
latency in the observed region stays roughly constant.
"""

from __future__ import annotations

import random

from ..core.amcast import AtomicMulticast
from ..core.config import MultiRingConfig, global_config
from ..core.swarm import ClientSwarm, shared_factory
from ..kvstore.client import MRPStoreCommands, kv_request_factory
from ..kvstore.partitioning import HashPartitioner
from ..kvstore.service import MRPStoreService
from ..sim.topology import EC2_REGIONS, ec2_global
from ..workloads.arrival import constant
from ..workloads.kv import preload_keys, update_only_workload
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = ["run_fig7_point", "fig7_config", "OBSERVED_REGION", "GLOBAL_RING_ID"]


#: Region the paper measures latency in.
OBSERVED_REGION = "us-west-2"

#: The ring spanning all regions that every replica subscribes to.
GLOBAL_RING_ID = 50

_UPDATE_BYTES = 1024


def fig7_config() -> MultiRingConfig:
    """The Figure 7 configuration: cross-datacenter parameters, batching on."""
    return global_config().with_(
        batching_enabled=True,
        checkpoint_interval=None,
        trim_interval=None,
    )


def run_fig7_point(
    region_count: int,
    key_count: int = 2000,
    warmup: float = 2.0,
    duration: float = 10.0,
    seed: int = 42,
    offered_rate_per_region: float = 400.0,
) -> ExperimentResult:
    """Run one region-count point of Figure 7 on one event loop.

    The original globally ordered deployment: every region hosts its
    partition ring (three proposers/acceptors, one replica) and its client,
    and every replica also subscribes to the global ring, whose acceptors are
    the partitions' ``kv<g>-node0``.  Each region is driven by one open-loop
    client (``fig7-client-<region>``) at ``offered_rate_per_region``: the
    paper's scalability argument is that "the local throughput of a region
    is not influenced by other regions", so the reproduction offers the same
    load per region and checks that every region absorbs it regardless of
    how many other regions participate.  Coordinator value batching is on,
    as in the prototype.
    """
    if not 1 <= region_count <= len(EC2_REGIONS):
        raise ValueError(f"region_count must be within 1..{len(EC2_REGIONS)}")
    regions = list(EC2_REGIONS[:region_count])
    system = AtomicMulticast(
        topology=ec2_global(regions), config=fig7_config(), seed=seed
    )
    service = MRPStoreService(
        system,
        partition_groups=list(range(region_count)),
        acceptors_per_partition=3,
        replicas_per_partition=1,
        site_for_partition=dict(enumerate(regions)),
        global_ring_id=GLOBAL_RING_ID,
    )
    service.preload(preload_keys(key_count))
    for group, region in enumerate(regions):
        # Clients only ever touch their local partition (Section 8.4.2):
        # every command goes through a single-group partitioner pinned to
        # the region's group, so it is routed to the local ring.
        commands = MRPStoreCommands(HashPartitioner([group]))
        frontends = service.frontend_map(preferred_site=region)
        workload = update_only_workload(
            random.Random(seed + group),
            key_count=key_count,
            value_bytes=_UPDATE_BYTES,
            key_prefix=f"r{group}-key",
        )
        ClientSwarm(
            system.env,
            f"fig7-client-{region}",
            frontends_by_group=frontends,
            request_factory=shared_factory(kv_request_factory(commands, workload)),
            clients=1,
            arrival=constant(offered_rate_per_region),
            site=region,
            metric_prefix=f"fig7.{region}",
        )
    harness = Measurement(
        system,
        MeasurementWindow(warmup=warmup, duration=duration),
        throughput_metrics=[f"fig7.{region}.throughput" for region in regions],
        latency_metrics=[f"fig7.{region}.latency" for region in regions],
    )
    harness.run_to_end(harness.window.end)
    results = harness.results

    per_region = {r: results[f"fig7.{r}.throughput.rate"] for r in regions}
    observed = OBSERVED_REGION if OBSERVED_REGION in regions else regions[0]
    return ExperimentResult(
        name="fig7",
        params={"regions": region_count},
        metrics={
            "aggregate_ops": sum(per_region.values()),
            "observed_region_ops": per_region[observed],
            "latency_mean_ms": results[f"fig7.{observed}.latency.mean_ms"],
            "latency_p95_ms": results[f"fig7.{observed}.latency.p95_ms"],
        },
        series={"latency_cdf_observed": results[f"fig7.{observed}.latency.cdf"]},
    )

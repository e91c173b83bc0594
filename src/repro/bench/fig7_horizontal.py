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
from typing import Any, Dict

from ..core.amcast import AtomicMulticast
from ..core.client import OpenLoopClient
from ..core.config import MultiRingConfig, global_config
from ..kvstore.client import MRPStoreCommands, kv_request_factory
from ..kvstore.partitioning import HashPartitioner
from ..kvstore.service import MRPStoreService
from ..sim.disk import StorageMode
from ..sim.topology import EC2_REGIONS, ec2_global
from ..workloads.kv import preload_keys, update_only_workload
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = [
    "run_fig7_point", "build_fig7_shard", "fig7_config",
    "OBSERVED_REGION", "GLOBAL_RING_ID",
]


#: Region the paper measures latency in.
OBSERVED_REGION = "us-west-2"

#: The ring spanning all regions that every replica subscribes to.
GLOBAL_RING_ID = 50

_UPDATE_BYTES = 1024


def fig7_config(faulted: bool = False) -> MultiRingConfig:
    """The Figure 7 configuration, single-process and sharded alike.

    ``faulted`` enables the learner gap-repair timer for crash-schedule runs
    (see :func:`repro.bench.fig6_vertical.fig6_config`).
    """
    return global_config(storage_mode=StorageMode.ASYNC_SSD).with_(
        batching_enabled=True,
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.1 if faulted else None,
    )


def _region_client(
    system: AtomicMulticast,
    service: MRPStoreService,
    payload: Dict[str, Any],
    group: int,
    region: str,
) -> None:
    """One region's open-loop client.

    Clients only ever touch their local partition (Section 8.4.2): every
    command goes through a single-group partitioner pinned to the region's
    group, so it is routed to the local ring.
    """
    commands = MRPStoreCommands(HashPartitioner([group]))
    frontends = service.frontend_map(preferred_site=region)
    workload = update_only_workload(
        random.Random(payload["seed"] + group),
        key_count=payload["key_count"],
        value_bytes=_UPDATE_BYTES,
        key_prefix=f"r{group}-key",
    )
    OpenLoopClient(
        system.env,
        f"fig7-client-{region}",
        frontends_by_group=frontends,
        request_factory=kv_request_factory(commands, workload),
        rate_per_second=payload["offered_rate"],
        site=region,
        metric_prefix=f"fig7.{region}",
    )


def build_fig7_shard(payload: Dict[str, Any]) -> Measurement:
    """Build a Figure 7 deployment: every region of it, or one shard's regions.

    The one builder of the figure's deployment.  ``payload["placement"]`` is
    a ``[(group, region)]`` list: each region hosts its partition ring (three
    proposers/acceptors, one replica) and its clients, and with
    ``payload["global_ring_id"]`` set every replica also subscribes to the
    global ring spanning the placed regions.  :func:`run_fig7_point` places
    every region with the global ring and runs the result in-process;
    :func:`repro.bench.parallel.run_fig7_sharded` ships one region per payload
    to its workers (no global ring: in the shared configuration the region's
    replica stands in for the original replica's partition-ring half and
    streams its segments, see
    :meth:`~repro.bench.runner.Measurement.shard_options`).  Each region is
    driven by one open-loop client at ``payload["offered_rate"]``.
    """
    placement = payload["placement"]
    regions = [region for _, region in placement]
    config = payload["config"]
    system = AtomicMulticast(
        topology=ec2_global(regions), config=config, seed=payload["seed"]
    )
    service = MRPStoreService(
        system,
        partition_groups=[group for group, _ in placement],
        acceptors_per_partition=3,
        replicas_per_partition=1,
        site_for_partition=dict(placement),
        global_ring_id=payload["global_ring_id"],
    )
    service.preload(preload_keys(payload["key_count"]))
    for group, region in placement:
        _region_client(system, service, payload, group, region)
    harness = Measurement(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
        throughput_metrics=[f"fig7.{region}.throughput" for region in regions],
        latency_metrics=[f"fig7.{region}.latency" for region in regions],
    )
    return harness.shard_options(payload, service.all_replicas())


def run_fig7_point(
    region_count: int,
    key_count: int = 2000,
    warmup: float = 2.0,
    duration: float = 10.0,
    seed: int = 42,
    offered_rate_per_region: float = 400.0,
) -> ExperimentResult:
    """Run one region-count point of Figure 7 on one event loop.

    The original globally ordered deployment: every region's partition ring
    plus the global ring all replicas subscribe to, whose acceptors are the
    partitions' ``kv<g>-node0``.  (On several cores,
    :func:`repro.bench.parallel.run_fig7_sharded` gives the global ring
    dedicated acceptors instead, because these shared ones tie every ring
    into one shard.)  Clients are open-loop at
    ``offered_rate_per_region``: the paper's scalability argument is that
    "the local throughput of a region is not influenced by other regions",
    so the reproduction offers the same load per region and checks that
    every region absorbs it regardless of how many other regions
    participate.  Coordinator value batching is on, as in the prototype.
    """
    if not 1 <= region_count <= len(EC2_REGIONS):
        raise ValueError(f"region_count must be within 1..{len(EC2_REGIONS)}")
    regions = list(EC2_REGIONS[:region_count])
    harness = build_fig7_shard({
        "config": fig7_config(),
        "seed": seed,
        "placement": list(enumerate(regions)),
        "global_ring_id": GLOBAL_RING_ID,
        "key_count": key_count,
        "offered_rate": offered_rate_per_region,
        "warmup": warmup,
        "duration": duration,
    })
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

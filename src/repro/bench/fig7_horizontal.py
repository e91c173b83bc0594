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
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.amcast import AtomicMulticast
from ..core.config import MultiRingConfig, global_config
from ..kvstore.service import MRPStoreService
from ..kvstore.partitioning import HashPartitioner
from ..sim.disk import StorageMode
from ..sim.topology import EC2_REGIONS, ec2_global
from ..workloads.kv import preload_keys, update_only_workload
from .reporting import relative_increments
from .runner import ExperimentResult, MeasurementWindow, measure

__all__ = [
    "run_fig7", "run_fig7_point", "fig7_config", "FIG7_REGION_COUNTS",
    "OBSERVED_REGION", "GLOBAL_RING_ID",
]

#: Number of synchronised partitions (regions) on the x-axis.
FIG7_REGION_COUNTS = (1, 2, 3, 4)

#: Region the paper measures latency in.
OBSERVED_REGION = "us-west-2"

#: The ring spanning all regions that every replica subscribes to.
GLOBAL_RING_ID = 50

_UPDATE_BYTES = 1024


def fig7_config(batching_enabled: bool = True, faulted: bool = False) -> MultiRingConfig:
    """The Figure 7 configuration, single-process and sharded alike.

    ``faulted`` enables the learner gap-repair timer for crash-schedule runs
    (see :func:`repro.bench.fig6_vertical.fig6_config`).
    """
    return global_config(storage_mode=StorageMode.ASYNC_SSD).with_(
        batching_enabled=batching_enabled,
        batch_max_bytes=32 * 1024,
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.1 if faulted else None,
    )


def run_fig7_point(
    region_count: int,
    clients_per_region: int = 24,
    key_count: int = 2000,
    warmup: float = 2.0,
    duration: float = 10.0,
    seed: int = 42,
    offered_rate_per_region: float = 400.0,
    workers: Optional[int] = None,
    sharded_configuration: str = "independent",
    batching_enabled: bool = True,
) -> ExperimentResult:
    """Run one region-count point of Figure 7.

    Clients are open-loop at ``offered_rate_per_region``: the paper's
    scalability argument is that "the local throughput of a region is not
    influenced by other regions", so the reproduction offers the same load per
    region and checks that every region absorbs it regardless of how many
    other regions participate.  ``clients_per_region`` is kept for API
    compatibility and bounds the number of outstanding requests implicitly
    through the offered rate.

    ``workers`` switches to the sharded engine spread over that many cores
    (see :func:`repro.bench.parallel.run_fig7_sharded`);
    ``sharded_configuration="shared"`` keeps the figure's *original* shape —
    partition rings plus the global ring all replicas subscribe to — with the
    global ring in its own shard and a parent-side merge stage, while
    ``"independent"`` drops the global ring.  ``workers=None`` runs the
    original globally ordered deployment on one event loop.
    ``batching_enabled`` controls coordinator value batching (on by default,
    as in the prototype); off gives the unbatched reference point.
    """
    if not 1 <= region_count <= len(EC2_REGIONS):
        raise ValueError(f"region_count must be within 1..{len(EC2_REGIONS)}")
    if workers is not None:
        from .parallel import run_fig7_sharded

        return run_fig7_sharded(
            region_count,
            workers=workers,
            key_count=key_count,
            warmup=warmup,
            duration=duration,
            seed=seed,
            offered_rate_per_region=offered_rate_per_region,
            configuration=sharded_configuration,
            batching_enabled=batching_enabled,
        )
    regions = list(EC2_REGIONS[:region_count])
    config = fig7_config(batching_enabled)
    system = AtomicMulticast(topology=ec2_global(regions), config=config, seed=seed)
    groups = list(range(region_count))
    service = MRPStoreService(
        system,
        partition_groups=groups,
        acceptors_per_partition=3,
        replicas_per_partition=1,
        site_for_partition={g: regions[g] for g in groups},
        global_ring_id=GLOBAL_RING_ID,
        config=config,
    )
    service.preload(preload_keys(key_count))

    # Clients only touch their local partition (Section 8.4.2): each client
    # uses a single-group partitioner pinned to its region's group, so every
    # command it issues is routed to the local ring.
    from ..core.client import OpenLoopClient
    from ..kvstore.client import MRPStoreCommands, kv_request_factory

    clients = []
    for g, region in enumerate(regions):
        rng = random.Random(seed + g)
        workload = update_only_workload(
            rng, key_count=key_count, value_bytes=_UPDATE_BYTES, key_prefix=f"r{g}-key"
        )
        local_commands = MRPStoreCommands(HashPartitioner([g]))
        factory = kv_request_factory(local_commands, workload)
        client = OpenLoopClient(
            system.env,
            f"fig7-client-{region}",
            frontends_by_group=service.frontend_map(preferred_site=region),
            request_factory=factory,
            rate_per_second=offered_rate_per_region,
            site=region,
            metric_prefix=f"fig7.{region}",
        )
        clients.append(client)

    window = MeasurementWindow(warmup=warmup, duration=duration)
    results = measure(
        system,
        window,
        throughput_metrics=[f"fig7.{r}.throughput" for r in regions],
        latency_metrics=[f"fig7.{r}.latency" for r in regions],
    )
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


def run_fig7(
    region_counts: Sequence[int] = FIG7_REGION_COUNTS,
    clients_per_region: int = 24,
    warmup: float = 2.0,
    duration: float = 10.0,
    seed: int = 42,
) -> List[ExperimentResult]:
    """Run the full Figure 7 sweep and annotate relative increments."""
    results = [
        run_fig7_point(
            count, clients_per_region=clients_per_region, warmup=warmup, duration=duration, seed=seed
        )
        for count in region_counts
    ]
    increments = relative_increments([r.metrics["aggregate_ops"] for r in results])
    for result, increment in zip(results, increments):
        result.metrics["relative_increment_pct"] = increment
    return results

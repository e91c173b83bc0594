"""Figure 4 — YCSB comparison: Cassandra-like, MRP-Store (two configs), MySQL-like.

The paper runs YCSB with 100 client threads against four systems: Apache
Cassandra (three partitions, replication factor three), MRP-Store with
independent per-partition rings, MRP-Store with an additional global ring
ordering requests across partitions, and a single MySQL instance.  The
database is initialised before the measurement; throughput in operations per
second is reported for workloads A-F, and the bottom graph reports latency
per operation type under workload F (Section 8.3.2).

The stand-ins reproduce the ordering disciplines rather than the systems'
implementations (see ``repro.baselines``); what must hold is the ranking —
no ordering ≥ per-partition ordering ≥ global ordering ≈ single server — and
the workload-E exception where range scans erase the eventual store's edge.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..baselines.eventual import EventualStoreService
from ..baselines.singleserver import SingleServerStore
from ..core.amcast import AtomicMulticast
from ..core.client import ClosedLoopClient
from ..core.config import MultiRingConfig
from ..core.swarm import ClientSwarm, shared_factory
from ..kvstore.client import MRPStoreCommands, kv_request_factory
from ..kvstore.partitioning import HashPartitioner
from ..kvstore.service import MRPStoreService
from ..sim.disk import StorageMode
from ..sim.topology import single_datacenter
from ..workloads.arrival import ArrivalCurve, constant
from ..workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload, ycsb_keyspace
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = ["run_fig4_point", "FIG4_SYSTEMS", "FIG4_WORKLOADS"]

#: The four systems compared in the figure.
FIG4_SYSTEMS = ("cassandra", "mrp-store-indep", "mrp-store", "mysql")

#: The six YCSB workloads of the figure.
FIG4_WORKLOADS = ("A", "B", "C", "D", "E", "F")

#: Partitions / replication factor used by the paper.
_PARTITIONS = (0, 1, 2)
_REPLICATION = 3


def _build_workload(workload: str, record_count: int, seed: int) -> YCSBWorkload:
    return YCSBWorkload(
        YCSB_WORKLOADS[workload],
        record_count=record_count,
        rng=random.Random(seed),
    )


def _build_mrp(system: AtomicMulticast, global_ring: bool, config: MultiRingConfig) -> MRPStoreService:
    return MRPStoreService(
        system,
        partition_groups=list(_PARTITIONS),
        acceptors_per_partition=3,
        replicas_per_partition=_REPLICATION,
        global_ring_id=9 if global_ring else None,
        config=config,
    )


def run_fig4_point(
    system_name: str,
    workload_name: str,
    client_threads: int = 100,
    record_count: int = 5000,
    warmup: float = 1.0,
    duration: float = 8.0,
    seed: int = 42,
    client_engine: str = "actors",
    simulated_users: Optional[int] = None,
    client_mode: str = "closed",
    arrival: Optional[ArrivalCurve] = None,
    slo: Optional[Dict[str, float]] = None,
    sketch: object = "auto",
) -> ExperimentResult:
    """Run one (system, workload) bar of Figure 4.

    ``client_engine="actors"`` (default) drives the system with one
    :class:`ClosedLoopClient` holding ``client_threads`` outstanding requests
    — the paper's setup.  ``client_engine="swarm"`` replaces it with a
    :class:`~repro.core.swarm.ClientSwarm` of ``simulated_users`` flyweight
    clients: closed-loop (one outstanding request per user) or, for very
    large user counts, open-loop following ``arrival``.  ``slo`` enables
    per-class SLO accounting and ``sketch`` bounds recorder memory (see the
    swarm docs).
    """
    if system_name not in FIG4_SYSTEMS:
        raise ValueError(f"unknown system {system_name}")
    if workload_name not in YCSB_WORKLOADS:
        raise ValueError(f"unknown workload {workload_name}")
    if client_engine not in ("actors", "swarm"):
        raise ValueError(f"unknown client engine {client_engine}")

    workload = _build_workload(workload_name, record_count, seed)
    keyspace = ycsb_keyspace(record_count)
    config = MultiRingConfig(
        storage_mode=StorageMode.ASYNC_SSD,
        batching_enabled=True,
        rate_interval=0.005,
        max_rate=3000.0,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(topology=single_datacenter(), config=config, seed=seed)
    partitioner = HashPartitioner(list(_PARTITIONS))
    commands = MRPStoreCommands(partitioner)
    factory = kv_request_factory(commands, workload)

    if system_name in ("mrp-store", "mrp-store-indep"):
        service = _build_mrp(system, global_ring=(system_name == "mrp-store"), config=config)
        service.preload(keyspace)
        frontends = service.frontend_map()
    elif system_name == "cassandra":
        eventual = EventualStoreService(
            system.env, partition_groups=list(_PARTITIONS),
            replication_factor=_REPLICATION, partitioner=partitioner,
        )
        eventual.preload(keyspace)
        frontends = eventual.frontend_map()
    else:  # mysql
        server = SingleServerStore(system.env, "sqlserver")
        server.preload(keyspace)
        frontends = {g: server.name for g in _PARTITIONS}

    if client_engine == "swarm":
        users = simulated_users or client_threads
        swarm = ClientSwarm(
            system.env,
            "ycsb-swarm",
            frontends_by_group=frontends,
            request_factory=shared_factory(factory),
            clients=users,
            mode=client_mode,
            concurrency=1,
            arrival=arrival or constant(float(client_threads) * 25.0),
            metric_prefix="ycsb",
            addressing="auto",
            slo=slo,
            sketch=sketch,
        )
    else:
        client = ClosedLoopClient(
            system.env,
            "ycsb-client",
            frontends_by_group=frontends,
            request_factory=factory,
            concurrency=client_threads,
            metric_prefix="ycsb",
        )

    harness = Measurement(
        system,
        MeasurementWindow(warmup=warmup, duration=duration),
        throughput_metrics=["ycsb.throughput"],
        latency_metrics=["ycsb.latency"],
        slo_classes=sorted(slo) if slo else (),
    )
    harness.run_to_end(harness.window.end)
    results = harness.results

    metrics = {
        "throughput_ops": results["ycsb.throughput.rate"],
        "latency_mean_ms": results["ycsb.latency.mean_ms"],
        "latency_p95_ms": results["ycsb.latency.p95_ms"],
    }
    if client_engine == "swarm":
        metrics["simulated_users"] = float(swarm.clients)
        metrics["swarm_completed"] = float(swarm.completed)
        metrics["latency_p99_ms"] = results["ycsb.latency.p99_ms"]
        for cls in sorted(slo) if slo else ():
            metrics[f"slo_{cls}_violation_fraction"] = results[
                f"slo.{cls}.violation_fraction"
            ]
    # Workload F's per-operation latency breakdown (bottom graph of Figure 4).
    if workload_name == "F":
        for label, metric_name in (
            ("read", "ycsb.latency.read"),
            ("read_modify_write", "ycsb.latency.read-update"),
        ):
            recorder = system.env.metrics.latency(metric_name)
            metrics[f"latency_{label}_ms"] = recorder.mean() * 1e3
    params = {"system": system_name, "workload": workload_name, "threads": client_threads}
    if client_engine == "swarm":
        params["engine"] = "swarm"
        params["users"] = simulated_users or client_threads
        params["mode"] = client_mode
    return ExperimentResult(name="fig4", params=params, metrics=metrics)

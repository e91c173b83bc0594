"""Figure 6 — vertical scalability of dLog (rings ↔ disks).

The number of rings grows from 1 to 5; each ring is bound to its own disk, so
adding a ring adds storage resources to the same three physical machines.
Learners subscribe to the ``k`` log rings plus one common ring shared by all
learners.  Clients issue 1 KB appends batched into 32 KB packets; acceptors
write asynchronously.  The figure reports aggregate throughput (with the
relative increment per added ring printed on the bars) and the latency CDF of
writes to disk 1 (Section 8.4.1).

Expected shape: aggregate throughput grows close to linearly with the number
of rings (the paper reports 95-106 % relative increments) while latency stays
roughly flat.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.amcast import AtomicMulticast
from ..core.client import ClosedLoopClient
from ..core.config import MultiRingConfig
from ..dlog.client import append_request_factory
from ..dlog.service import DLogService
from ..sim.disk import StorageMode
from ..sim.topology import single_datacenter
from ..workloads.log import single_log
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = [
    "run_fig6_point", "build_fig6_shard", "fig6_config",
    "COMMON_RING_ID",
]


_APPEND_BYTES = 1024

#: The ring every learner of the original deployment subscribes to.
COMMON_RING_ID = 99


def fig6_config(faulted: bool = False) -> MultiRingConfig:
    """The Figure 6 configuration, single-process and sharded alike.

    ``faulted`` enables the learner gap-repair timer: a crash-schedule run
    (:func:`repro.bench.parallel.run_fig6_sharded`) restarts in-shard
    learners, and the fresh incarnation must re-fetch the decided prefix from
    the acceptors before it can re-emit its stream.
    """
    return MultiRingConfig(
        storage_mode=StorageMode.ASYNC_HDD,
        batching_enabled=True,
        rate_interval=0.005,
        max_rate=4000.0,
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.1 if faulted else None,
    )


def build_fig6_shard(payload: Dict[str, Any]) -> Measurement:
    """Build a Figure 6 deployment: every ring of it, or one shard's rings.

    The one builder of the figure's deployment.  ``payload["log_ids"]`` are
    the log rings it hosts, each with its own dedicated disk and closed-loop
    client (``clients_per_ring`` outstanding appends of ``append_bytes``),
    and one dLog replica subscribes to all of them plus, when
    ``payload["common_ring_id"]`` is set, the common ring of the original
    deployment.  :func:`run_fig6_point` builds all rings with the common ring
    and runs the result in-process; :func:`repro.bench.parallel.run_fig6_sharded`
    ships one ring per payload to its workers (no common ring: the shard's
    replica stands in for the shared learner's per-ring half and streams its
    segments, see :meth:`~repro.bench.runner.Measurement.shard_options`).
    """
    config = payload["config"]
    system = AtomicMulticast(
        topology=single_datacenter(), config=config, seed=payload["seed"]
    )
    log_ids = list(payload["log_ids"])
    service = DLogService(
        system,
        log_ids=log_ids,
        acceptors_per_log=2,
        replica_count=1,
        common_ring_id=payload["common_ring_id"],
        dedicated_disks=True,
    )
    for log_id in log_ids:
        factory = append_request_factory(
            service.commands,
            log_chooser=single_log(log_id),
            append_bytes=_APPEND_BYTES,
        )
        ClosedLoopClient(
            system.env,
            f"fig6-client{log_id}",
            frontends_by_group=service.frontend_map(),
            request_factory=factory,
            concurrency=payload["clients_per_ring"],
            metric_prefix=f"fig6.ring{log_id}",
        )

    metric_names = [f"fig6.ring{log_id}" for log_id in log_ids]
    harness = Measurement(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
        throughput_metrics=[f"{m}.throughput" for m in metric_names],
        latency_metrics=[f"{m}.latency" for m in metric_names],
    )
    return harness.shard_options(payload, service.replicas)


def run_fig6_point(
    ring_count: int,
    clients_per_ring: int = 16,
    warmup: float = 1.0,
    duration: float = 8.0,
    seed: int = 42,
) -> ExperimentResult:
    """Run one ring-count point of Figure 6 on one event loop.

    The original deployment: ``ring_count`` log rings plus the common ring,
    one learner subscribed to all of them, with coordinator value batching
    on (the paper's prototype batches to 32 KB).  (On several cores:
    :func:`repro.bench.parallel.run_fig6_sharded`.)
    """
    if ring_count < 1:
        raise ValueError("ring_count must be >= 1")
    harness = build_fig6_shard({
        "config": fig6_config(),
        "seed": seed,
        "log_ids": list(range(ring_count)),
        "common_ring_id": COMMON_RING_ID,
        "clients_per_ring": clients_per_ring,
        "warmup": warmup,
        "duration": duration,
    })
    harness.run_to_end(harness.window.end)
    results = harness.results

    metric_names = [f"fig6.ring{log_id}" for log_id in range(ring_count)]
    per_ring = [results[f"{m}.throughput.rate"] for m in metric_names]
    return ExperimentResult(
        name="fig6",
        params={"rings": ring_count},
        metrics={
            "aggregate_ops": sum(per_ring),
            "per_ring_ops": per_ring[0],
            "latency_disk1_mean_ms": results[f"{metric_names[0]}.latency.mean_ms"],
            "latency_disk1_p95_ms": results[f"{metric_names[0]}.latency.p95_ms"],
        },
        series={"latency_cdf_disk1": results[f"{metric_names[0]}.latency.cdf"]},
    )

"""Figure 5 — dLog versus the sequencer-based ensemble log (Bookkeeper stand-in).

Both systems implement a strongly consistent distributed log and write every
request to disk synchronously.  dLog uses two rings with three acceptors per
ring, learners subscribed to both rings and co-located with the acceptors; the
comparator uses an ensemble of three storage nodes behind a sequencer with
aggressive batching.  A multithreaded client sends 1 KB append requests; the
client-thread count sweeps up to 200 (Section 8.3.3).

Expected shape: dLog achieves higher throughput and much lower latency; the
sequencer log's latency is dominated by its batching window.
"""

from __future__ import annotations


from ..baselines.seqlog import SequencerLogService
from ..core.amcast import AtomicMulticast
from ..core.client import ClosedLoopClient
from ..core.config import MultiRingConfig
from ..dlog.client import DLogCommands, append_request_factory
from ..dlog.service import DLogService
from ..sim.disk import StorageMode
from ..sim.topology import single_datacenter
from ..workloads.log import round_robin_logs
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = ["run_fig5_point", "FIG5_SYSTEMS"]

FIG5_SYSTEMS = ("dlog", "bookkeeper")


_APPEND_BYTES = 1024
_DLOG_LOGS = (0, 1)


def run_fig5_point(
    system_name: str,
    client_threads: int,
    warmup: float = 1.0,
    duration: float = 8.0,
    seed: int = 42,
) -> ExperimentResult:
    """Run one (system, client threads) point of Figure 5."""
    if system_name not in FIG5_SYSTEMS:
        raise ValueError(f"unknown system {system_name}")
    config = MultiRingConfig(
        storage_mode=StorageMode.SYNC_HDD,
        batching_enabled=True,
        batch_max_bytes=32 * 1024,
        rate_interval=0.005,
        max_rate=2000.0,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(topology=single_datacenter(), config=config, seed=seed)

    if system_name == "dlog":
        service = DLogService(
            system,
            log_ids=list(_DLOG_LOGS),
            acceptors_per_log=3,
            replica_count=2,
            dedicated_disks=True,
            config=config,
        )
        frontends = service.frontend_map()
    else:
        ensemble = SequencerLogService(
            system.env,
            ensemble_size=3,
            batch_bytes=512 * 1024,
            batch_window=0.020,
        )
        frontends = ensemble.frontend_map(_DLOG_LOGS)

    commands = DLogCommands()
    factory = append_request_factory(
        commands,
        log_chooser=round_robin_logs(_DLOG_LOGS),
        append_bytes=_APPEND_BYTES,
    )
    client = ClosedLoopClient(
        system.env,
        "log-client",
        frontends_by_group=frontends,
        request_factory=factory,
        concurrency=client_threads,
        metric_prefix="fig5",
    )

    harness = Measurement(
        system,
        MeasurementWindow(warmup=warmup, duration=duration),
        throughput_metrics=["fig5.throughput"],
        latency_metrics=["fig5.latency"],
    )
    harness.run_to_end(harness.window.end)
    results = harness.results
    return ExperimentResult(
        name="fig5",
        params={"system": system_name, "threads": client_threads},
        metrics={
            "throughput_ops": results["fig5.throughput.rate"],
            "latency_mean_ms": results["fig5.latency.mean_ms"],
            "latency_p95_ms": results["fig5.latency.p95_ms"],
        },
    )

"""Figure 8 — impact of recovery on performance.

One ring with three acceptors (asynchronous disk writes) and three replicas;
the system operates at 75 % of its peak load with an open-loop client.  The
replicas periodically checkpoint their in-memory store synchronously to disk
so acceptors can trim their logs.  One replica is terminated early in the run
and restarts much later, at which point it downloads the most recent
checkpoint from an operational replica and fetches the remaining instances
from the acceptors.  The figure plots throughput and latency over time and
marks five events: (1) replica terminated, (2) replica checkpoints,
(3) acceptor log trimming, (4) replica recovery, (5) re-proposals caused by
recovery traffic (Section 8.5).

Expected shape: losing one replica barely changes throughput (clients take the
first answer); checkpoints do not disrupt; trimming and the checkpoint
download/installation cause visible but short dips.

The runner accepts a ``time_scale`` so the paper's 300-second timeline can be
compressed for automated benchmarking while preserving the sequence of events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.amcast import AtomicMulticast
from ..core.client import OpenLoopClient
from ..core.config import MultiRingConfig
from ..kvstore.client import kv_request_factory
from ..kvstore.service import MRPStoreService
from ..sim.disk import StorageMode
from ..sim.parallel import ShardHarness
from ..sim.topology import single_datacenter
from ..workloads.kv import preload_keys, update_only_workload
from .runner import ExperimentResult

__all__ = ["run_fig8", "RecoveryTimeline", "FIG8_EVENTS"]

#: Event labels of the figure.
FIG8_EVENTS = {
    1: "replica terminated",
    2: "replica checkpoint",
    3: "acceptor log trimming",
    4: "replica recovery",
    5: "re-proposals due to recovery traffic",
}


@dataclass
class RecoveryTimeline:
    """Timeline output of the recovery experiment."""

    throughput: List[Tuple[float, float]] = field(default_factory=list)
    latency_ms: List[Tuple[float, float]] = field(default_factory=list)
    events: List[Tuple[float, int]] = field(default_factory=list)


def run_fig8(
    duration: float = 300.0,
    crash_at: float = 20.0,
    restart_at: float = 240.0,
    load_ops_per_s: float = 6000.0,
    checkpoint_interval: float = 60.0,
    trim_interval: float = 100.0,
    key_count: int = 2000,
    time_scale: float = 1.0,
    seed: int = 42,
) -> ExperimentResult:
    """Run the recovery experiment and return its timeline.

    ``time_scale`` multiplies every time constant (duration, crash/restart
    times, checkpoint and trim intervals), allowing a faithful but shorter
    rendition of the 300-second experiment.
    """
    duration *= time_scale
    crash_at *= time_scale
    restart_at *= time_scale
    checkpoint_interval *= time_scale
    trim_interval *= time_scale
    if not 0 < crash_at < restart_at < duration:
        raise ValueError("event times must satisfy 0 < crash_at < restart_at < duration")

    config = MultiRingConfig(
        storage_mode=StorageMode.ASYNC_SSD,
        batching_enabled=True,
        rate_interval=None,
        checkpoint_interval=checkpoint_interval,
        trim_interval=trim_interval,
    )
    system = AtomicMulticast(topology=single_datacenter(), config=config, seed=seed)
    service = MRPStoreService(
        system,
        partition_groups=[0],
        acceptors_per_partition=3,
        replicas_per_partition=3,
        config=config,
    )
    service.preload(preload_keys(key_count))

    rng = random.Random(seed)
    workload = update_only_workload(rng, key_count=key_count, value_bytes=1024)
    factory = kv_request_factory(service.commands, workload)
    client = OpenLoopClient(
        system.env,
        "fig8-client",
        frontends_by_group=service.frontend_map(),
        request_factory=factory,
        rate_per_second=load_ops_per_s,
        metric_prefix="fig8",
    )

    victim = service.replicas[0][-1]
    events: List[Tuple[float, int]] = []

    def crash() -> None:
        system.crash_process(victim.name)
        events.append((system.env.now, 1))
        # Checkpoints/trims happen on their periodic timers; record their
        # approximate positions for the timeline annotation.
        next_checkpoint = checkpoint_interval
        while next_checkpoint < duration:
            if next_checkpoint > crash_at:
                events.append((next_checkpoint, 2))
            next_checkpoint += checkpoint_interval
        next_trim = trim_interval
        while next_trim < duration:
            events.append((next_trim, 3))
            next_trim += trim_interval

    def restart() -> None:
        system.restart_process(victim.name)
        events.append((system.env.now, 4))
        events.append((system.env.now, 5))

    # The crash and the restart are phases, not kernel events: each runs
    # once every event up to its time has executed.
    harness = ShardHarness(system.env)
    harness.at(crash_at, crash)
    harness.at(restart_at, restart)
    system.start()
    harness.run_to_end(duration)

    throughput = system.env.metrics.throughput("fig8.throughput")
    latency = system.env.metrics.latency("fig8.latency")
    timeline = RecoveryTimeline(
        throughput=throughput.timeline(0.0, duration),
        events=sorted(events, key=lambda e: e[0]),
    )

    before_crash = throughput.rate(0.0, crash_at)
    while_down = throughput.rate(crash_at, restart_at)
    after_recovery = throughput.rate(restart_at, duration)
    return ExperimentResult(
        name="fig8",
        params={
            "duration_s": duration,
            "crash_at_s": crash_at,
            "restart_at_s": restart_at,
            "load_ops_per_s": load_ops_per_s,
        },
        metrics={
            "throughput_before_crash": before_crash,
            "throughput_while_down": while_down,
            "throughput_after_recovery": after_recovery,
            "latency_mean_ms": latency.mean() * 1e3,
            "victim_recovered": 1.0 if victim.commands_applied > 0 else 0.0,
            "checkpoints_taken": float(
                sum(
                    r.checkpointer.checkpoints_taken
                    for r in service.all_replicas()
                    if r.checkpointer is not None
                )
            ),
        },
        series={
            "throughput_timeline": timeline.throughput,
            "events": [(t, float(code)) for t, code in timeline.events],
        },
    )

"""Figure 6 on several cores: its original deployment, one shard per ring.

The single-process runner executes every ring on one event loop;
:func:`run_fig6_sharded` runs the same deployment — ``ring_count`` log rings
plus the common ring, coupled only by the learner every ring shares — with
each ring in its own shard of :func:`repro.sim.parallel.run_sharded`.  Every
log-ring shard is built by the figure's own builder
(:func:`~repro.bench.fig6_vertical.build_fig6_shard`, the one the
single-process runner runs in-process); the common ring, which carries no
client traffic, is the last shard.  Both build the common ring from
``dlogc-node0/1`` plus ``dlog-replica0``.

The shared learner is **reactive**: the run executes in barrier windows
(:data:`SEGMENT_INTERVAL`), every shard ships the decision-stream segments it
recorded since the last barrier (skips included, with its watermark), and a
parent-hosted :class:`~repro.core.smr.ReactiveReplicaHost` — a *real* dLog
replica driven by a streaming :class:`~repro.multiring.merge.MergeCursor` —
applies merged deliveries barrier by barrier, so clients observe merged
cross-ring state during the run and the result carries client-visible
latency accounting (``reactive_latency_*``).  The shards exchange no
messages (the coupling is the merge, not traffic).

The sharded engine is a correctness and differential tool, not a throughput
tool: ``run_fig6_sharded(..., workers=k)`` is bit-identical for every ``k`` —
the engine executes the same per-shard simulators whether they run
sequentially in-process (``workers=1``) or in ``k`` worker processes,
windowed execution runs the same events as a single window, and the merge is
a pure function of the streamed segments.  The reactive merged order is
additionally bit-identical to the offline
:func:`~repro.multiring.merge.replay_streams` of the concatenated segments
(``series['merged_deliveries_offline']``).  This holds under faults too: a
fixed ``crash_schedule`` crashes and restarts the shared learner's in-shard
mirrors at scheduled simulated instants, the restarted learners re-emit
their stream prefixes, and each shard's segment buffer drops what it already
shipped, so the host sees every decided instance once and reconstructs the
same merged state whatever the worker count.
``tests/bench/test_parallel_differential.py`` asserts all of this on full
per-learner delivery sequences; the ledger's ``dlog-sharded-w2`` workload
(``benchmarks/ledger``) measures this point on two workers, with the host's
share (``sim.parallel.merge_stage_s``) accounted separately from the shard
stage (``sim.parallel.shard_wall_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.amcast import AtomicMulticast
from ..core.smr import ProposerFrontend, ReactiveReplicaHost
from ..multiring.process import MultiRingProcess
from ..net.ring import RingMember
from ..sim.actor import Environment
from ..sim.parallel import ShardSpec, run_sharded
from ..sim.topology import single_datacenter
from .fig6_vertical import COMMON_RING_ID, build_fig6_shard, fig6_config
from .runner import (
    ExperimentResult,
    Measurement,
    MeasurementWindow,
    schedule_crashes,
    stable_payload_key,
)

__all__ = ["run_fig6_sharded"]

#: Barrier cadence (simulated seconds) at which the shards ship
#: decision-stream segments to the reactive replica host.
SEGMENT_INTERVAL = 0.25

#: The deployment's one learner, subscribed to every ring.
SHARED_LEARNER = "dlog-replica0"


def _delivery_digest_from(merged: Sequence[Tuple[int, int, Any]]) -> List[tuple]:
    """Digest raw merged ``(group, instance, value)`` triples."""
    return [
        (group, instance, stable_payload_key(value.payload))
        for group, instance, value in merged
    ]


def _build_common_ring_shard(payload: Dict[str, Any]) -> Measurement:
    """Build the common ring's shard.

    The common ring carries no client traffic — it exists so the learner
    shares one ring with every log — so the shard is just its two
    proposer/acceptor front ends ``dlogc-node0/1`` on the local cluster, as
    in the single-process deployment, plus one recording learner standing in
    for the shared learner's subscription.  Its rate-leveled skip stream is
    exactly what the host needs to advance each round-robin past the ring.
    """
    config = payload["config"]
    topology = single_datacenter()
    site = topology.sites()[0].name
    system = AtomicMulticast(topology=topology, config=config, seed=payload["seed"])
    frontends = [
        ProposerFrontend(system.env, f"dlogc-node{i}", site=site)
        for i in range(2)
    ]
    learner = MultiRingProcess(system.env, SHARED_LEARNER, site=site)
    members: List[RingMember] = [
        RingMember(name=f.name, proposer=True, acceptor=True, learner=False)
        for f in frontends
    ] + [RingMember(name=learner.name, proposer=False, acceptor=False, learner=True)]
    system.create_ring(COMMON_RING_ID, members)
    schedule_crashes(system, payload["crash_schedule"])

    harness = Measurement(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
    )
    harness.stream_segments(learner.record_ring_segments())
    return harness


def run_fig6_sharded(
    ring_count: int,
    workers: int = 1,
    clients_per_ring: int = 8,
    warmup: float = 1.0,
    duration: float = 8.0,
    seed: int = 42,
    record_deliveries: bool = False,
    configuration: str = "shared",
    crash_schedule: Optional[Sequence[Tuple[float, str, float]]] = None,
) -> ExperimentResult:
    """Figure 6 point with one shard per ring, spread over ``workers`` cores.

    Runs ``ring_count`` log-ring shards plus the common-ring shard until
    ``warmup + duration`` in barrier windows of :data:`SEGMENT_INTERVAL`
    simulated seconds, every shard shipping the decision-stream segments
    recorded since the last barrier into a parent-hosted reactive dLog
    replica that applies the merged round-robin deliveries as they stream
    in, with client-visible latency accounting (``reactive_latency_mean_ms``
    / ``_p95_ms``, ``merge_stage_s`` vs ``shard_wall_clock_s``).
    ``configuration`` names that deployment and accepts ``"shared"`` only.

    Returns the usual :class:`ExperimentResult` plus parallel-run accounting
    (``wall_clock_s``, ``events_total``, ``workers``, ``barrier_count``).
    With ``record_deliveries=True`` each log-ring shard's full per-learner
    delivery sequence is included under ``series['deliveries']`` keyed by
    shard id — the payload the seed-differential test compares across worker
    counts — together with ``series['merged_deliveries']`` (the reactively
    applied merge output), ``series['merged_deliveries_offline']`` (the
    offline :func:`~repro.multiring.merge.replay_streams` of the same
    streams, which must be bit-identical) and ``series['ring_streams']`` (the
    per-ring decision-stream digests).

    ``crash_schedule`` is a fixed list of ``(at, process, down_for)`` fault
    points: the named process — typically the shared learner, whose name is
    mirrored into every shard — crashes at simulated time ``at`` and restarts
    ``down_for`` seconds later, in every shard that hosts it.  The schedule
    is part of the deterministic event plan, so a faulted run is still
    bit-identical across worker counts; the restarted learner's re-emitted
    stream prefix is dropped by the shard's segment buffer before it is
    shipped, and the stall the crash opens shows up in
    ``reactive_stall_count`` / ``reactive_stalled_ms``.
    """
    if ring_count < 1:
        raise ValueError("ring_count must be >= 1")
    if configuration != "shared":
        raise ValueError(f"configuration must be 'shared', not {configuration!r}")
    config = fig6_config(faulted=bool(crash_schedule))
    payload = {
        "config": config,
        "clients_per_ring": clients_per_ring,
        "warmup": warmup,
        "duration": duration,
        "seed": seed,
        "record_deliveries": record_deliveries,
        "stream_segments": True,
        "crash_schedule": [tuple(point) for point in crash_schedule or ()] or None,
    }
    specs = [
        ShardSpec(
            shard_id=ring,
            build=build_fig6_shard,
            payload={**payload, "log_ids": [ring], "common_ring_id": None},
        )
        for ring in range(ring_count)
    ]
    specs.append(ShardSpec(shard_id=ring_count, build=_build_common_ring_shard, payload=payload))

    from ..dlog.replica import DLogReplica

    replica = DLogReplica(Environment(), SHARED_LEARNER, respond_to_clients=False)
    host = ReactiveReplicaHost(
        replica,
        list(range(ring_count)) + [COMMON_RING_ID],
        messages_per_round=config.messages_per_round,
        retain_history=record_deliveries,
    )
    run = run_sharded(
        specs,
        workers=workers,
        until=warmup + duration,
        segment_interval=SEGMENT_INTERVAL,
        segment_sink=host.sink,
    )

    # The shard stage's wall clock keeps its historical meaning — wall clock
    # minus *total* host time — so the figure is comparable across rounds.
    # How much of the host's time ran while some worker was still running
    # ahead (and so never extended the wall clock) is reported separately.
    stats = host.latency_stats()
    overlap = min(run.merge_overlap_s, host.seconds)
    result = ExperimentResult(
        name="fig6-sharded-shared",
        params={
            "rings": ring_count,
            "workers": run.workers,
            "configuration": configuration,
            "faulted": bool(crash_schedule),
        },
        metrics={
            "aggregate_ops": sum(
                run.results[ring].get(f"fig6.ring{ring}.throughput.rate", 0.0)
                for ring in range(ring_count)
            ),
            "latency_mean_ms": run.results[0].get("fig6.ring0.latency.mean_ms", 0.0),
            "wall_clock_s": run.wall_clock,
            "events_total": float(run.total_events),
            "workers": float(run.workers),
            "barrier_count": float(run.windows),
            "ipc_bytes": float(run.ipc_bytes),
            "ipc_messages": float(run.ipc_messages),
            # Every worker runs every window; the ledger reads this key, pinned at 0.
            "worker_windows_skipped": 0.0,
            "merge_overlap_s": overlap,
            "merge_overlap_fraction": overlap / host.seconds if host.seconds > 0.0 else 0.0,
            "merge_stage_s": host.seconds,
            "shard_wall_clock_s": run.wall_clock - host.seconds,
            "reactive_latency_mean_ms": stats["mean_ms"],
            "reactive_latency_p95_ms": stats["p95_ms"],
            "reactive_latency_count": stats["count"],
            "reactive_stall_count": stats["stall_count"],
            "reactive_stalled_ms": stats["stalled_ms"],
            "reactive_commands_applied": float(host.commands_applied),
        },
    )
    if record_deliveries:
        result.series = {
            "deliveries": {
                shard_id: shard["deliveries"]
                for shard_id, shard in run.results.items()
                if "deliveries" in shard
            },
            "ring_streams": {
                ring: [(instance, stable_payload_key(value.payload)) for instance, value in stream]
                for ring, stream in sorted(host.streams.items())
            },
            "merged_deliveries": {SHARED_LEARNER: _delivery_digest_from(host.deliveries)},
            "merged_deliveries_offline": {
                SHARED_LEARNER: _delivery_digest_from(host.offline_deliveries())
            },
        }
    return result

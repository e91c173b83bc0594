"""Sharded (multi-core) variants of the scalability figures.

The single-process figure runners execute every ring on one event loop; the
runners here re-measure vertical (Figure 6) and horizontal (Figure 7)
scalability with the deployment's rings partitioned across real cores via
:func:`repro.sim.parallel.run_sharded`.  Every shard of a figure's own
deployment is built by the figure's builder
(:func:`~repro.bench.fig6_vertical.build_fig6_shard` /
:func:`~repro.bench.fig7_horizontal.build_fig7_shard`, the same one the
single-process runner runs in-process) for that shard's ring or region.  Two
configurations per figure:

* ``configuration="independent"`` — each shard hosts complete rings:
  acceptors, its own replica/learner, its own clients; no process
  participates in rings of two shards.  This isolates the paper's scaling
  claim (rings do not interfere) but is *not* the deployment the figures
  measured.
* ``configuration="shared"`` — Figure 6's learner subscribes to every log
  ring plus a common ring, Figure 7's replicas to their partition ring plus
  a global ring.  The rings share *learners only*, so each ring still runs
  in its own shard.  For Figure 6 that is the single-process deployment
  (both build the common ring from ``dlogc-node0/1`` plus
  ``dlog-replica0``).  For Figure 7 it is not: here the global ring runs on
  dedicated per-region acceptors ``kvg-node<g>``, whereas
  :func:`~repro.bench.fig7_horizontal.run_fig7_point` (through
  :class:`~repro.kvstore.service.MRPStoreService`) reuses each partition's
  ``kv<g>-node0``, which couples the partition rings and the global ring by
  traffic so that they cannot be split.  The two runners measure different
  deployments.  The shared learner itself is **reactive**: the run executes
  in barrier windows (:data:`SEGMENT_INTERVAL`), every shard ships the
  decision-stream segments it recorded since the last barrier (skips
  included, with its watermark), and
  a parent-hosted :class:`~repro.core.smr.ReactiveReplicaHost` — a *real*
  MRP-Store/dLog replica driven by a streaming
  :class:`~repro.multiring.merge.MergeCursor` — applies merged deliveries
  barrier by barrier, so clients observe merged cross-ring state during the
  run and the results carry client-visible latency accounting
  (``reactive_latency_*``).  The shards still exchange no messages (the
  coupling is the merge, not traffic).

Determinism: ``run_figN_sharded(..., workers=k)`` is bit-identical for every
``k`` — the engine executes the same per-shard simulators whether they run
sequentially in-process (``workers=1``, the single-process reference engine)
or in ``k`` worker processes, windowed execution runs the same events as a
single window, and the merge stage is a pure function of the streamed
segments.  The reactive merged order is additionally bit-identical to the
offline :func:`~repro.multiring.merge.replay_streams` of the concatenated
segments (``series['merged_deliveries_offline']``).  This holds under
faults too: a fixed ``crash_schedule`` crashes and restarts the shared
learner's in-shard mirrors at scheduled simulated instants, the restarted
learners re-emit their stream prefixes, and each shard's segment buffer
drops what it already shipped, so the merge stage sees every decided
instance once and reconstructs the same merged state whatever the worker
count.  ``tests/bench/test_parallel_differential.py`` asserts all of
this on full per-learner delivery sequences; the ledger's ``dlog-sharded-w2``
workload (``benchmarks/ledger``) measures the shared Figure 6 point on two
workers, with the merge/reactive stage (``sim.parallel.merge_stage_s``)
accounted separately from the shard stage (``sim.parallel.shard_wall_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.amcast import AtomicMulticast
from ..core.config import MultiRingConfig
from ..core.smr import ProposerFrontend, ReactiveMergeStage, ReactiveReplicaHost
from ..multiring.process import MultiRingProcess
from ..net.ring import RingMember
from ..sim.actor import Environment
from ..sim.parallel import ParallelRunResult, ShardSpec, run_sharded
from ..sim.topology import EC2_REGIONS, ec2_global, single_datacenter
from .fig6_vertical import COMMON_RING_ID, build_fig6_shard, fig6_config
from .fig7_horizontal import GLOBAL_RING_ID, OBSERVED_REGION, build_fig7_shard, fig7_config
from .runner import (
    ExperimentResult,
    Measurement,
    MeasurementWindow,
    schedule_crashes,
    stable_payload_key,
)

__all__ = ["run_fig6_sharded", "run_fig7_sharded"]

#: Barrier cadence (simulated seconds) at which shared-configuration shards
#: ship decision-stream segments to the reactive merge stage.
SEGMENT_INTERVAL = 0.25


# ---------------------------------------------------------------------------
# Shared-learner (shared-configuration) shards and reporting: the reactive
# merge stage itself is :class:`repro.core.smr.ReactiveMergeStage`, the
# figures' own deployments are built by ``build_fig6_shard`` /
# ``build_fig7_shard``
# ---------------------------------------------------------------------------

def _delivery_digest_from(merged: Sequence[Tuple[int, int, Any]]) -> List[tuple]:
    """Digest raw merged ``(group, instance, value)`` triples."""
    return [
        (group, instance, stable_payload_key(value.payload))
        for group, instance, value in merged
    ]


def _annotate(
    result: ExperimentResult,
    run: ParallelRunResult,
    stage: ReactiveMergeStage,
    observed: str,
) -> None:
    """Record the reactive stage's metrics on an experiment result.

    ``observed`` names the host whose client-visible latency is reported.
    ``shard_wall_clock_s`` keeps its historical meaning — wall clock minus
    *total* merge-stage time — so the figure is comparable across rounds.
    How much of the merge stage actually ran while some worker was still
    running ahead (and therefore never extended the wall clock) is reported
    separately as ``merge_overlap_s`` / ``merge_overlap_fraction``.  A stage
    that collected the streams (``record_deliveries``) also reports the three
    digests the differentials compare: the per-ring shipped streams, the
    live merged deliveries and their offline replay.
    """
    stats = stage.hosts[observed].latency_stats()
    overlap = min(run.merge_overlap_s, stage.seconds)
    result.metrics["merge_overlap_s"] = overlap
    result.metrics["merge_overlap_fraction"] = (
        overlap / stage.seconds if stage.seconds > 0.0 else 0.0
    )
    result.metrics["merge_stage_s"] = stage.seconds
    result.metrics["shard_wall_clock_s"] = result.metrics["wall_clock_s"] - stage.seconds
    result.metrics["reactive_latency_mean_ms"] = stats["mean_ms"]
    result.metrics["reactive_latency_p95_ms"] = stats["p95_ms"]
    result.metrics["reactive_latency_count"] = stats["count"]
    result.metrics["reactive_stall_count"] = stats["stall_count"]
    result.metrics["reactive_stalled_ms"] = stats["stalled_ms"]
    result.metrics["reactive_commands_applied"] = float(
        sum(host.commands_applied for host in stage.hosts.values())
    )
    if stage.collect_streams:
        result.series["ring_streams"] = {
            ring: [(instance, stable_payload_key(value.payload)) for instance, value in stream]
            for ring, stream in sorted(stage.streams.items())
        }
        result.series["merged_deliveries"] = {
            name: _delivery_digest_from(host.deliveries)
            for name, host in stage.hosts.items()
        }
        result.series["merged_deliveries_offline"] = {
            name: _delivery_digest_from(merged)
            for name, merged in stage.offline_deliveries().items()
        }


def _build_idle_ring_shard(payload: Dict[str, Any]) -> Measurement:
    """Build the shared configuration's traffic-less ring shard.

    Figure 6's common ring and Figure 7's global ring carry no client traffic
    — they exist so every learner shares one ring — so the shard is just the
    ring's proposer/acceptor front ends (``payload["idle_ring"]`` names them
    and their sites: ``dlogc-node0/1`` on the local cluster for Figure 6, as
    in the single-process deployment; one dedicated ``kvg-node<g>`` per region
    for Figure 7, where the single-process deployment reuses each partition's
    ``kv<g>-node0`` instead — dedicated acceptors are what make the sharded
    deployment share learners only) plus one recording learner standing in
    for the shared learners' subscription.  Its rate-leveled skip stream
    is exactly what the merge stage needs to advance each round-robin past
    the idle ring.
    """
    idle = payload["idle_ring"]
    config = payload["config"]
    system = AtomicMulticast(
        topology=idle["topology"], config=config, seed=payload["seed"]
    )
    frontends = [
        ProposerFrontend(system.env, name, site=site, config=config)
        for name, site in idle["frontends"]
    ]
    learner = MultiRingProcess(
        system.env, idle["learner"], site=idle["frontends"][0][1],
        messages_per_round=config.messages_per_round,
    )
    members: List[RingMember] = [
        RingMember(name=f.name, proposer=True, acceptor=True, learner=False)
        for f in frontends
    ] + [RingMember(name=learner.name, proposer=False, acceptor=False, learner=True)]
    system.create_ring(idle["ring_id"], members)
    schedule_crashes(system, payload.get("crash_schedule"))

    harness = Measurement(
        system,
        MeasurementWindow(warmup=payload["warmup"], duration=payload["duration"]),
    )
    harness.stream_segments(learner.record_ring_segments())
    return harness


# ---------------------------------------------------------------------------
# Figure 6 (vertical scalability) — one shard per ring+disk
# ---------------------------------------------------------------------------

def _fig6_reactive_stage(
    ring_count: int, config: MultiRingConfig, collect_streams: bool
) -> ReactiveMergeStage:
    """The parent-hosted reactive dLog replica of the shared configuration.

    The deployment's single shared learner subscribes to every log ring plus
    the common ring; a real :class:`~repro.dlog.replica.DLogReplica` in a
    parent-side environment applies the merged deliveries as they stream in.
    """
    from ..dlog.replica import DLogReplica

    env = Environment()
    replica = DLogReplica(
        env, "dlog-replica0", config=config, respond_to_clients=False
    )
    host = ReactiveReplicaHost(
        replica,
        list(range(ring_count)) + [COMMON_RING_ID],
        messages_per_round=config.messages_per_round,
        retain_history=collect_streams,
    )
    return ReactiveMergeStage([host], collect_streams)


def run_fig6_sharded(
    ring_count: int,
    workers: int = 1,
    clients_per_ring: int = 8,
    warmup: float = 1.0,
    duration: float = 8.0,
    seed: int = 42,
    record_deliveries: bool = False,
    configuration: str = "independent",
    crash_schedule: Optional[Sequence[Tuple[float, str, float]]] = None,
) -> ExperimentResult:
    """Figure 6 point with one shard per ring, spread over ``workers`` cores.

    ``configuration="independent"`` runs one self-contained ring (with its
    own replica) per shard; ``configuration="shared"`` runs the figure's
    *original* deployment shape — ``ring_count`` log rings plus the common
    ring, coupled only by the shared learner — with one shard per ring and a
    parent-hosted **reactive** merge stage: the run executes in barrier
    windows of :data:`SEGMENT_INTERVAL` simulated seconds, every shard ships the
    decision-stream segments recorded since the last barrier, and a real
    dLog replica applies the merged round-robin deliveries as they stream
    in, with client-visible latency accounting (``reactive_latency_mean_ms``
    / ``_p95_ms``, ``merge_stage_s`` vs ``shard_wall_clock_s``).

    Returns the usual :class:`ExperimentResult` plus parallel-run accounting
    (``wall_clock_s``, ``events_total``, ``workers``, ``barrier_count``).
    With ``record_deliveries=True`` each shard's full per-learner delivery
    sequence is included under ``series['deliveries']`` keyed by shard id —
    the payload the seed-differential test compares across worker counts —
    and the shared configuration additionally reports
    ``series['merged_deliveries']`` (the reactively applied merge output),
    ``series['merged_deliveries_offline']`` (the offline
    :func:`~repro.multiring.merge.replay_streams` of the same streams, which
    must be bit-identical) and ``series['ring_streams']`` (the per-ring
    decision-stream digests).

    ``crash_schedule`` (shared configuration only) is a fixed list of
    ``(at, process, down_for)`` fault points: the named process — typically
    the shared learner, whose name is mirrored into every shard — crashes at
    simulated time ``at`` and restarts ``down_for`` seconds later, in every
    shard that hosts it.  The schedule is part of the deterministic event
    plan, so a faulted run is still bit-identical across worker counts; the
    restarted learner's re-emitted stream prefix is dropped by the shard's
    segment buffer before it is shipped, and the stall the crash opens shows
    up in ``reactive_stall_count`` / ``reactive_stalled_ms``.
    """
    if ring_count < 1:
        raise ValueError("ring_count must be >= 1")
    if configuration not in ("independent", "shared"):
        raise ValueError(
            f"configuration must be 'independent' or 'shared', not {configuration!r}"
        )
    shared = configuration == "shared"
    if crash_schedule and not shared:
        raise ValueError("crash_schedule requires configuration='shared'")
    config = fig6_config(faulted=bool(crash_schedule))
    payload_base = {
        "config": config,
        "clients_per_ring": clients_per_ring,
        "warmup": warmup,
        "duration": duration,
        "seed": seed,
        "record_deliveries": record_deliveries,
        "stream_segments": shared,
        "crash_schedule": [tuple(point) for point in crash_schedule or ()] or None,
    }
    specs = [
        ShardSpec(
            shard_id=ring,
            build=build_fig6_shard,
            payload={**payload_base, "log_ids": [ring], "common_ring_id": None},
        )
        for ring in range(ring_count)
    ]
    shared_shape = None
    if shared:
        topology = single_datacenter()
        site = topology.sites()[0].name
        shared_shape = (
            {
                "ring_id": COMMON_RING_ID,
                "topology": topology,
                "frontends": [(f"dlogc-node{i}", site) for i in range(2)],
                "learner": "dlog-replica0",
            },
            _fig6_reactive_stage(ring_count, config, collect_streams=record_deliveries),
            "dlog-replica0",
        )
    return _run_point(
        "fig6-sharded",
        specs,
        payload_base,
        params={
            "rings": ring_count,
            "workers": workers,
            "configuration": configuration,
            "faulted": bool(crash_schedule),
        },
        rate_keys={
            ring: [f"fig6.ring{ring}.throughput.rate"] for ring in range(ring_count)
        },
        latency_key=(0, "fig6.ring0.latency.mean_ms"),
        shared_shape=shared_shape,
    )


# ---------------------------------------------------------------------------
# Figure 7 (horizontal scalability) — one shard per region
# ---------------------------------------------------------------------------

def _fig7_reactive_stage(
    region_count: int,
    config: MultiRingConfig,
    key_count: int,
    collect_streams: bool,
) -> ReactiveMergeStage:
    """The parent-hosted reactive MRP-Store replicas of the shared shape.

    One real :class:`~repro.kvstore.replica.MRPStoreReplica` per region, each
    merging its partition ring with the global ring — preloaded with the same
    initial dataset the in-shard replicas carry, so the reactive store state
    is the state a client of the original deployment would read.
    """
    from ..kvstore.replica import MRPStoreReplica
    from ..workloads.kv import preload_keys

    env = Environment()
    dataset = preload_keys(key_count)
    hosts: List[ReactiveReplicaHost] = []
    for group in range(region_count):
        replica = MRPStoreReplica(
            env, f"kv{group}-replica0", config=config, respond_to_clients=False
        )
        for key, size in dataset.items():
            replica.store.insert(key, None, size)
        hosts.append(ReactiveReplicaHost(
            replica,
            [group, GLOBAL_RING_ID],
            messages_per_round=config.messages_per_round,
            retain_history=collect_streams,
        ))
    return ReactiveMergeStage(hosts, collect_streams)


def run_fig7_sharded(
    region_count: int,
    workers: int = 1,
    key_count: int = 2000,
    warmup: float = 2.0,
    duration: float = 10.0,
    seed: int = 42,
    offered_rate_per_region: float = 400.0,
    record_deliveries: bool = False,
    configuration: str = "independent",
    crash_schedule: Optional[Sequence[Tuple[float, str, float]]] = None,
) -> ExperimentResult:
    """Figure 7 point with one shard per region, spread over ``workers`` cores.

    Every region shard is driven by the figure's one open-loop client
    (:class:`~repro.core.client.OpenLoopClient`, ``fig7-client-<region>``)
    offering ``offered_rate_per_region``.

    ``configuration="shared"`` runs every region's partition ring plus a
    global ring all replicas subscribe to, with the global ring on dedicated
    per-region acceptors ``kvg-node<g>`` in its own shard.  That is not
    :func:`~repro.bench.fig7_horizontal.run_fig7_point`'s deployment: there
    each partition's ``kv<g>-node0`` is also a global-ring acceptor, which
    couples every ring by traffic into one unsplittable component.  Shared
    learners are all the rings have in common here, so they shard, with a
    parent-hosted **reactive** merge stage: one real MRP-Store replica per
    region applies its merged round-robin order (partition ring + global
    ring) barrier by barrier as the shards stream their decision-stream
    segments, with client-visible latency accounting (``reactive_latency_*``,
    ``merge_stage_s``).  With
    ``record_deliveries=True`` the reactively applied merge output is
    reported under ``series['merged_deliveries']`` (keyed by replica name),
    alongside the bit-identical offline replay
    (``series['merged_deliveries_offline']``) and the per-ring stream
    digests (``series['ring_streams']``).

    ``crash_schedule`` (shared configuration only) injects fixed
    ``(at, process, down_for)`` crash/restart points into every shard that
    hosts the named process — see :func:`run_fig6_sharded` for the
    semantics; the faulted run stays bit-identical across worker counts.
    """
    if not 1 <= region_count <= len(EC2_REGIONS):
        raise ValueError(f"region_count must be within 1..{len(EC2_REGIONS)}")
    if configuration not in ("independent", "shared"):
        raise ValueError(
            f"configuration must be 'independent' or 'shared', not {configuration!r}"
        )
    shared = configuration == "shared"
    if crash_schedule and not shared:
        raise ValueError("crash_schedule requires configuration='shared'")
    regions = list(EC2_REGIONS[:region_count])
    config = fig7_config(faulted=bool(crash_schedule))
    payload_base = {
        "config": config,
        "key_count": key_count,
        "warmup": warmup,
        "duration": duration,
        "seed": seed,
        "offered_rate": offered_rate_per_region,
        "record_deliveries": record_deliveries,
        "stream_segments": shared,
        "crash_schedule": [tuple(point) for point in crash_schedule or ()] or None,
    }
    specs = [
        ShardSpec(
            shard_id=group,
            build=build_fig7_shard,
            payload={
                **payload_base, "placement": [(group, region)], "global_ring_id": None,
            },
        )
        for group, region in enumerate(regions)
    ]
    observed = regions.index(OBSERVED_REGION) if OBSERVED_REGION in regions else 0
    shared_shape = None
    if shared:
        shared_shape = (
            {
                "ring_id": GLOBAL_RING_ID,
                "topology": ec2_global(regions),
                "frontends": [(f"kvg-node{g}", region) for g, region in enumerate(regions)],
                "learner": "kvg-learner",
            },
            _fig7_reactive_stage(
                region_count, config, key_count, collect_streams=record_deliveries
            ),
            f"kv{observed}-replica0",
        )
    return _run_point(
        "fig7-sharded",
        specs,
        payload_base,
        params={
            "regions": region_count,
            "workers": workers,
            "configuration": configuration,
            "faulted": bool(crash_schedule),
        },
        rate_keys={
            group: [f"fig7.{region}.throughput.rate"]
            for group, region in enumerate(regions)
        },
        latency_key=(observed, f"fig7.{regions[observed]}.latency.mean_ms"),
        shared_shape=shared_shape,
    )


# ---------------------------------------------------------------------------
# Shared driver and result assembly
# ---------------------------------------------------------------------------

def _run_point(
    name: str,
    specs: List[ShardSpec],
    payload_base: Dict[str, Any],
    params: Dict[str, Any],
    rate_keys: Dict[int, List[str]],
    latency_key: Tuple[int, str],
    shared_shape: Optional[Tuple[Dict[str, Any], ReactiveMergeStage, str]],
) -> ExperimentResult:
    """Run one figure point's shards until ``warmup + duration``; assemble its result.

    ``shared_shape`` is ``None`` for the independent configuration (one
    window, no barriers).  For the shared configuration it is the idle ring's
    description (see :func:`_build_idle_ring_shard`), the reactive merge
    stage and the name of the host whose latency the result reports: the
    idle ring joins as the last shard, the run executes in
    :data:`SEGMENT_INTERVAL` windows streaming every barrier's segments into the
    stage, and :func:`_annotate` adds the stage's metrics.
    ``params["workers"]`` arrives as the requested count and leaves as the
    count the engine used.
    """
    until = payload_base["warmup"] + payload_base["duration"]
    if shared_shape is None:
        run = run_sharded(specs, workers=params["workers"], until=until)
    else:
        idle_ring, stage, observed = shared_shape
        specs.append(
            ShardSpec(
                shard_id=len(specs),
                build=_build_idle_ring_shard,
                payload={**payload_base, "idle_ring": idle_ring},
            )
        )
        run = run_sharded(
            specs,
            workers=params["workers"],
            until=until,
            segment_interval=SEGMENT_INTERVAL,
            segment_sink=stage.sink,
        )
        name += "-shared"
    params["workers"] = run.workers
    result = _collect(name, run, params, rate_keys, latency_key)
    if shared_shape is not None:
        _annotate(result, run, stage, observed)
    return result


def _collect(
    name: str,
    run: ParallelRunResult,
    params: Dict[str, Any],
    rate_keys: Dict[int, List[str]],
    latency_key,
) -> ExperimentResult:
    aggregate = 0.0
    per_shard: Dict[int, float] = {}
    for shard_id, keys in rate_keys.items():
        shard_rate = sum(run.results[shard_id].get(key, 0.0) for key in keys)
        per_shard[shard_id] = shard_rate
        aggregate += shard_rate
    latency_shard, latency_name = latency_key
    deliveries = {
        shard_id: result["deliveries"]
        for shard_id, result in run.results.items()
        if "deliveries" in result
    }
    result = ExperimentResult(
        name=name,
        params=params,
        metrics={
            "aggregate_ops": aggregate,
            "latency_mean_ms": run.results[latency_shard].get(latency_name, 0.0),
            "wall_clock_s": run.wall_clock,
            "events_total": float(run.total_events),
            "workers": float(run.workers),
            "barrier_count": float(run.windows),
            "ipc_bytes": float(run.ipc_bytes),
            "ipc_messages": float(run.ipc_messages),
            # Every worker runs every window; the ledger reads this key, pinned at 0.
            "worker_windows_skipped": 0.0,
        },
        series={"per_shard_ops": sorted(per_shard.items())},
    )
    if deliveries:
        result.series["deliveries"] = deliveries
    return result

"""Seeded random chaos scenarios: generator, runner and repro artifacts.

A single integer seed deterministically derives an entire scenario — the
topology, the deployment (plain atomic multicast, MRP-Store or dLog), the
workload and the fault schedule — so any failure reproduces exactly from its
seed.  The runner executes the scenario in three phases:

1. **active phase** — the workload and the fault schedule run concurrently on
   the simulation clock;
2. **healing epilogue** — every partition is healed, every crashed process
   restarted, every disk spike cleared, and the system quiesces; workload
   messages that no learner delivered (lost in a crashed coordinator's queue
   or on a cut link) are re-submitted once, the way real clients retry on
   timeout;
3. **verdict** — the invariant oracle checks the recorded delivery traces
   (and service state) and the runner dumps a repro artifact if anything is
   violated.

The epilogue and the retry pass are phase callbacks of one harness
(:class:`_ChaosRun`), so a scenario executes the same events in this process
and as a shard of the sharded engine (``--workers``).

Replay a failing scenario::

    PYTHONPATH=src python -m repro.chaos --seed <SEED>
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.amcast import AtomicMulticast
from ..core.client import Command
from ..core.config import MultiRingConfig
from ..core.smr import ReactiveReplicaHost
from ..multiring.process import MultiRingProcess
from ..multiring.sharding import ring_components
from ..net.message import ClientRequest, ClientResponse
from ..sim.actor import Actor, Environment
from ..sim.disk import StorageMode
from ..sim.parallel import ShardHarness, ShardSpec, run_sharded
from ..sim.topology import Topology, single_datacenter
from .oracle import (
    Violation,
    check_delivery_properties,
    check_log_convergence,
    check_store_convergence,
)
from .schedule import FaultSchedule
from .trace import TraceRecorder

__all__ = [
    "ScenarioResult",
    "generate_spec",
    "run_scenario",
    "shardable_components",
    "shared_merge_learners",
    "main",
]

#: Phase lengths shared by every family (simulated seconds).
SETTLE = 0.3
QUIESCE_HEAL = 1.2
QUIESCE_FINAL = 2.0

#: Barrier cadence of sharded execution (simulated seconds): finer than the
#: shortest crash the generator draws (0.15 s), so a crashed shared learner's
#: rings are seen uncovered at the merge stage before they restart.
SEGMENT_INTERVAL = 0.05

#: Fault knobs the generator draws from.
_CRASH_DURATION = (0.2, 0.8)
_PARTITION_DURATION = (0.1, 0.6)
_SPIKE_FACTOR = (4.0, 20.0)
_SPIKE_DURATION = (0.1, 0.5)


@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario."""

    seed: int
    family: str
    violations: List[Violation]
    stats: Dict[str, Any] = field(default_factory=dict)
    artifact_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.violations


# --------------------------------------------------------------------------
# Spec generation
# --------------------------------------------------------------------------

def generate_spec(seed: int) -> Dict[str, Any]:
    """Derive a scenario specification (plain data) from ``seed``."""
    rng = random.Random(seed ^ 0xC1A05)
    family = rng.choices(["amcast", "kvstore", "dlog"], weights=[3, 1, 1])[0]
    if family == "amcast":
        spec = _generate_amcast_spec(rng, seed)
    elif family == "kvstore":
        spec = _generate_kvstore_spec(rng, seed)
    else:
        spec = _generate_dlog_spec(rng, seed)
    spec["seed"] = seed
    spec["family"] = family
    return spec


def _pick_storage(rng: random.Random) -> str:
    return rng.choices(
        [StorageMode.IN_MEMORY.value, StorageMode.ASYNC_SSD.value, StorageMode.SYNC_SSD.value],
        weights=[6, 3, 1],
    )[0]


def _generate_amcast_spec(rng: random.Random, seed: int) -> Dict[str, Any]:
    site_count = rng.choice([1, 2, 2, 3])
    sites = [f"s{i}" for i in range(site_count)]
    ring_count = rng.choice([1, 2, 2, 3])
    # A quarter of the multi-ring scenarios use process-disjoint rings — the
    # paper's independent-rings shape with zero cross-ring traffic, which is
    # also what opts a scenario into sharded execution (--workers).
    disjoint = ring_count > 1 and rng.random() < 0.25
    if disjoint:
        process_count = 3 * ring_count + rng.randint(0, 2)
    else:
        process_count = rng.randint(4, 6)
    processes = {f"p{i}": rng.choice(sites) for i in range(process_count)}
    names = sorted(processes)

    rings: Dict[int, List[List[str]]] = {}
    shared_learner: Optional[str] = None
    if disjoint:
        pool = names[:]
        rng.shuffle(pool)
        share = len(pool) // ring_count
        for ring_id in range(ring_count):
            start = ring_id * share
            stop = start + share if ring_id < ring_count - 1 else len(pool)
            rings[ring_id] = [[name, "pal"] for name in sorted(pool[start:stop])]
        # Half of the disjoint draws add one shared learner-only subscriber
        # across every ring — the paper's Figure 6/7 shape (rings coupled by
        # a learner, not by traffic), which sharded execution handles with a
        # merge stage.  Drawn from a seed-derived secondary stream so the
        # other scenario families and the non-shared draws stay byte-for-byte
        # what they were before this shape existed.
        shared_rng = random.Random(seed ^ 0x57A6ED)
        if shared_rng.random() < 0.5:
            shared_learner = f"p{process_count}"
            processes[shared_learner] = shared_rng.choice(sites)
            for ring_id in rings:
                rings[ring_id].append([shared_learner, "l"])
    else:
        for ring_id in range(ring_count):
            core = rng.sample(names, k=min(len(names), rng.randint(3, 4)))
            members = [[name, "pal"] for name in core]
            for name in names:
                if name not in core and rng.random() < 0.3:
                    members.append([name, "l"])  # learner-only subscriber
            rings[ring_id] = members

    horizon = rng.uniform(1.2, 2.2)
    message_count = rng.randint(20, 60)
    messages = []
    for i in range(message_count):
        ring_id = rng.randrange(ring_count)
        proposers = [m[0] for m in rings[ring_id] if "p" in m[1]]
        messages.append({
            "at": round(rng.uniform(0.05, horizon), 6),
            "sender": rng.choice(proposers),
            "group": ring_id,
            "payload": f"g{ring_id}-m{i}",
            "size": rng.choice([64, 128, 512]),
        })

    schedule = _generate_faults(
        rng,
        horizon,
        crash_victims=names,
        sites=sites,
        allow_reconfig=True,
        rings=rings,
    )
    spec = {
        "sites": sites,
        "processes": processes,
        "rings": rings,
        "messages_per_round": rng.choice([1, 1, 2]),
        "storage_mode": _pick_storage(rng),
        "batching": rng.random() < 0.2,
        "horizon": horizon,
        "messages": messages,
        "schedule": schedule.to_dicts(),
    }
    if spec["batching"]:
        # Size-or-timeout assembly delay for the batched draws, from the
        # dedicated batching stream (see :func:`_draw_batching`).
        spec["batch_max_delay"] = round(
            random.Random(seed ^ 0xBA7C4).uniform(0.0002, 0.002), 6
        )
    # Fault families aimed at the fault-tolerant reactive merge, drawn from a
    # third seed-derived stream so every pre-existing draw — main and shared —
    # stays byte-for-byte identical.  They deliberately target the
    # shared-learner deployments: mid-run crash/restart of the shared learner
    # itself (its re-emitted stream prefixes exercise the segment buffer's
    # restart dedup),
    # gray failures (the learner's disks turn slow-but-alive), and WAN
    # topologies with asymmetric link latency.
    fault_rng = random.Random(seed ^ 0xFA17B)
    if disjoint and len(sites) >= 2 and fault_rng.random() < 0.4:
        spec["wan_asymmetric"] = True
    if shared_learner is not None:
        reconfigured = {
            event["params"].get("process")
            for event in spec["schedule"]
            if event["action"] in ("remove_from_ring", "add_to_ring")
        }
        draw = fault_rng.random()
        if draw < 0.35 and shared_learner not in reconfigured:
            # Crash the shared learner mid-run.  Learner-only, so no quorum
            # is at risk even when the window overlaps another crash; restart
            # well before the horizon so gap repair can re-emit the prefix.
            start = round(fault_rng.uniform(0.2, horizon * 0.6), 6)
            duration = round(fault_rng.uniform(0.15, 0.35), 6)
            schedule.crash(start, shared_learner)
            schedule.restart(start + duration, shared_learner)
            spec["schedule"] = schedule.to_dicts()
        elif draw < 0.60:
            # Gray failure: the shared learner stays alive but its storage
            # crawls.  The trailing "." keeps p1 from matching p1x's disks.
            start = round(fault_rng.uniform(0.1, horizon * 0.7), 6)
            duration = round(fault_rng.uniform(0.2, 0.5), 6)
            schedule.disk_spike(
                start,
                factor=round(fault_rng.uniform(5.0, 40.0), 3),
                match=f"{shared_learner}.",
            )
            schedule.disk_restore(start + duration, match=f"{shared_learner}.")
            spec["schedule"] = schedule.to_dicts()
    return spec


def _draw_batching(spec: Dict[str, Any], seed: int, probability: float = 0.35) -> None:
    """Batched scenario family: draw coordinator-batching knobs into ``spec``.

    Drawn from a dedicated seed-derived stream (like the shared-learner and
    fault-family streams) so every pre-existing draw in the main stream stays
    byte-for-byte identical — old seeds reproduce exactly, batched variants
    only *add* keys.  A batched scenario runs the same workload through
    coordinator value batching with a random size-or-timeout delay, and the
    invariant oracle validates its delivery traces unchanged.
    """
    batch_rng = random.Random(seed ^ 0xBA7C4)
    if batch_rng.random() < probability:
        spec["batching"] = True
        spec["batch_max_delay"] = round(batch_rng.uniform(0.0002, 0.002), 6)


def _draw_swarm(spec: Dict[str, Any], seed: int, probability: float = 0.35) -> None:
    """Flash-crowd scenario family: draw a client-swarm layer into ``spec``.

    Drawn from its own seed-derived stream (like the batching and
    fault-family streams) so every pre-existing draw stays byte-for-byte
    identical — old seeds reproduce exactly; flash-crowd variants only *add*
    keys.  A swarm scenario runs the usual RYW clients and fault timeline
    with a :class:`~repro.core.swarm.ClientSwarm` of flyweight open-loop
    clients layered on top: offered load follows a flash-crowd arrival curve
    (a burst ramping to several times the base rate mid-run) while
    connection churn takes clients away and back.  The invariant oracles
    (read-your-writes, store convergence) must hold under the crowd.
    """
    swarm_rng = random.Random(seed ^ 0xF1A5C)
    if swarm_rng.random() >= probability:
        return
    horizon = spec["horizon"]
    flash_at = round(horizon * swarm_rng.uniform(0.25, 0.5), 3)
    spec["swarm"] = {
        "users": swarm_rng.choice([50, 200, 1000]),
        "key_count": swarm_rng.randint(50, 200),
        "base_rate": round(swarm_rng.uniform(80.0, 200.0), 1),
        "peak_factor": round(swarm_rng.uniform(3.0, 8.0), 2),
        "flash_at": flash_at,
        "ramp": round(horizon * 0.1, 3),
        "hold": round(horizon * swarm_rng.uniform(0.1, 0.25), 3),
        "decay": round(horizon * 0.1, 3),
        "churn_rate": round(swarm_rng.uniform(2.0, 10.0), 2),
        "downtime": round(swarm_rng.uniform(0.05, 0.3), 3),
    }


def _generate_kvstore_spec(rng: random.Random, seed: int) -> Dict[str, Any]:
    partitions = rng.choice([1, 1, 2])
    replicas = rng.randint(2, 3)
    horizon = rng.uniform(1.5, 2.5)
    victims = (
        [f"kv{g}-replica{i}" for g in range(partitions) for i in range(replicas)]
        + [f"kv{g}-node{i}" for g in range(partitions) for i in range(3)]
    )
    schedule = _generate_faults(rng, horizon, crash_victims=victims, sites=[], allow_reconfig=False)
    clients = []
    for c in range(rng.choice([1, 2])):
        clients.append({
            "name": f"ryw{c}",
            "keys": rng.randint(2, 4),
            "requests": rng.randint(20, 40),
        })
    spec = {
        "partitions": partitions,
        "replicas": replicas,
        "storage_mode": _pick_storage(rng),
        "horizon": horizon,
        "clients": clients,
        "schedule": schedule.to_dicts(),
    }
    _draw_batching(spec, seed)
    _draw_swarm(spec, seed)
    return spec


def _generate_dlog_spec(rng: random.Random, seed: int) -> Dict[str, Any]:
    logs = rng.choice([1, 2, 3])
    replicas = 2
    horizon = rng.uniform(1.5, 2.5)
    victims = (
        [f"dlog-replica{i}" for i in range(replicas)]
        + [f"dlog{log}-node{i}" for log in range(logs) for i in range(3)]
    )
    schedule = _generate_faults(rng, horizon, crash_victims=victims, sites=[], allow_reconfig=False)
    spec = {
        "logs": logs,
        "replicas": replicas,
        "storage_mode": _pick_storage(rng),
        "horizon": horizon,
        "append_requests": rng.randint(20, 40),
        "multi_append_every": rng.choice([0, 5, 8]),
        "schedule": schedule.to_dicts(),
    }
    _draw_batching(spec, seed)
    return spec


def _generate_faults(
    rng: random.Random,
    horizon: float,
    crash_victims: List[str],
    sites: List[str],
    allow_reconfig: bool,
    rings: Optional[Dict[int, List[List[str]]]] = None,
) -> FaultSchedule:
    """A random timeline of paired faults, everything healed before the end.

    Crash windows are kept sequential (at most one process down at a time) so
    that every ring always retains a quorum of live acceptors — the scenarios
    probe safety under faults the protocol is designed to survive, not
    unavailability.
    """
    schedule = FaultSchedule()
    fault_count = rng.randint(1, 4)
    next_crash_start = rng.uniform(0.1, 0.4)
    for _ in range(fault_count):
        kinds = ["crash", "spike"]
        if len(sites) >= 2:
            kinds += ["partition", "isolate"]
        if allow_reconfig and rings:
            kinds.append("reconfig")
        kind = rng.choice(kinds)
        if kind == "crash" and crash_victims:
            start = next_crash_start
            duration = rng.uniform(*_CRASH_DURATION)
            if start + duration > horizon + SETTLE:
                continue
            victim = rng.choice(crash_victims)
            schedule.crash(start, victim)
            schedule.restart(start + duration, victim)
            next_crash_start = start + duration + rng.uniform(0.1, 0.4)
        elif kind == "partition":
            start = rng.uniform(0.1, horizon)
            duration = rng.uniform(*_PARTITION_DURATION)
            site_a, site_b = rng.sample(sites, 2)
            schedule.partition(start, site_a, site_b)
            schedule.heal(min(start + duration, horizon + SETTLE), site_a, site_b)
        elif kind == "isolate":
            start = rng.uniform(0.1, horizon)
            duration = rng.uniform(*_PARTITION_DURATION)
            site = rng.choice(sites)
            schedule.isolate(start, site)
            schedule.rejoin(min(start + duration, horizon + SETTLE), site)
        elif kind == "spike":
            start = rng.uniform(0.1, horizon)
            duration = rng.uniform(*_SPIKE_DURATION)
            schedule.disk_spike(start, factor=rng.uniform(*_SPIKE_FACTOR))
            schedule.disk_restore(min(start + duration, horizon + SETTLE))
        elif kind == "reconfig" and rings:
            # A learner-only member voluntarily leaves a ring and rejoins.
            candidates = [
                (ring_id, member[0])
                for ring_id, members in rings.items()
                for member in members
                if member[1] == "l"
            ]
            if not candidates:
                continue
            ring_id, name = rng.choice(candidates)
            start = rng.uniform(0.1, horizon * 0.6)
            schedule.add(start, "remove_from_ring", ring_id=ring_id, process=name)
            schedule.add(
                start + rng.uniform(0.1, 0.4), "add_to_ring",
                ring_id=ring_id, process=name, roles="l",
            )
    if not schedule.events and crash_victims:
        # Every draw fell on a guard: still inject at least one fault — a
        # fault-free "chaos" scenario would silently test nothing.
        victim = rng.choice(crash_victims)
        schedule.crash(0.3, victim)
        schedule.restart(0.3 + rng.uniform(*_CRASH_DURATION), victim)
    return schedule


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

def run_scenario(
    seed: int,
    artifacts_dir: Optional[str] = None,
    workers: int = 1,
) -> ScenarioResult:
    """Generate and execute the scenario of ``seed``; check every invariant.

    On violation a JSON repro artifact (seed, spec, fault timeline, trace
    tails) is written to ``artifacts_dir`` (default: ``./chaos-artifacts``,
    overridable through the ``CHAOS_ARTIFACT_DIR`` environment variable).

    ``workers > 1`` opts eligible scenarios into sharded execution: an
    atomic-multicast scenario whose rings form at least two components
    disjoint in their proposers/acceptors — zero cross-ring traffic — splits
    into per-component sub-scenarios executed as shards of
    :func:`~repro.sim.parallel.run_sharded` (see
    :func:`shardable_components`).  A learner-only subscriber may span
    components: it is mirrored into every shard hosting one of its rings,
    the mirrors stream their per-ring decision segments at every barrier,
    and the parent's :class:`~repro.core.smr.ReactiveReplicaHost` merges
    them into its cross-component delivery order (see
    :func:`_run_amcast_sharded`).  The verdict is identical either way; the
    oracle runs per shard, and cross-shard acyclicity through a shared
    learner is exactly what the deterministic merge pins down.  Ineligible
    scenarios fall back to single-process execution
    (``stats["sharded"] = False``).
    """
    spec = generate_spec(seed)
    family = spec["family"]
    if workers > 1:
        components = shardable_components(spec)
        if components is not None:
            violations, stats, tails, _ = _run_amcast_sharded(spec, components, workers)
            result = ScenarioResult(
                seed=seed, family=family, violations=violations, stats=stats
            )
            if violations:
                result.artifact_path = _dump_artifact(spec, result, tails, artifacts_dir)
            return result
        stats_note = {"sharded": False}
    else:
        stats_note = {}
    build = {"amcast": _build_amcast, "kvstore": _build_kvstore, "dlog": _build_dlog}[family]
    run = build(spec)
    run.run_to_end(run.final_end)
    violations, stats, recorder = run.verdict()
    stats.update(stats_note)
    result = ScenarioResult(seed=seed, family=family, violations=violations, stats=stats)
    if violations:
        result.artifact_path = _dump_artifact(
            spec, result, _trace_tails(recorder, violations), artifacts_dir
        )
    return result


def _chaos_config(spec: Dict[str, Any], **overrides: Any) -> MultiRingConfig:
    base = dict(
        messages_per_round=spec.get("messages_per_round", 1),
        rate_interval=0.005,
        max_rate=2000.0,
        storage_mode=StorageMode(spec["storage_mode"]),
        batching_enabled=spec.get("batching", False),
        batch_max_delay=spec.get("batch_max_delay", 0.0005),
        checkpoint_interval=None,
        trim_interval=None,
        gap_repair_interval=0.15,
    )
    base.update(overrides)
    return MultiRingConfig(**base)


def _build_topology(
    sites: List[str], rng: random.Random, asymmetric: bool = False
) -> Topology:
    if len(sites) <= 1:
        return single_datacenter(sites[0] if sites else "dc1")
    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    for site in sites:
        topo.add_site(site)
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            latency = rng.uniform(0.001, 0.02)
            if asymmetric:
                # WAN shape: the two directions of a link draw independent
                # latencies (the extra draw only happens for specs carrying
                # the flag, so symmetric scenarios keep their exact draws).
                topo.set_link(a, b, one_way_latency=latency,
                              bandwidth_bps=1e9, symmetric=False)
                topo.set_link(b, a, one_way_latency=rng.uniform(0.001, 0.02),
                              bandwidth_bps=1e9, symmetric=False)
            else:
                topo.set_link(a, b, one_way_latency=latency, bandwidth_bps=1e9)
    return topo


def _active_end(spec: Dict[str, Any], schedule: FaultSchedule) -> float:
    """End of the active phase: the workload horizon or the last fault, settled."""
    return max(spec["horizon"], schedule.end_time) + SETTLE


Verdict = Tuple[List[Violation], Dict[str, Any], TraceRecorder]


class _ChaosRun(ShardHarness):
    """One chaos deployment with its phase script, in-process or as a shard.

    The healing epilogue (every partition healed, every crashed process
    restarted, every disk spike cleared) fires at ``active_end`` and the
    optional ``retry`` pass at ``active_end + QUIESCE_HEAL``, both as phase
    callbacks (:meth:`~repro.sim.parallel.ShardHarness.at`); the run ends
    :data:`QUIESCE_FINAL` later (``final_end``).  ``run_to_end(final_end)``
    drives the script in one call, the sharded engine window by window — the
    same events either way.  ``verdict()`` checks the family's invariants
    afterwards.
    """

    def __init__(
        self,
        system: AtomicMulticast,
        active_end: float,
        verdict: Callable[[], Verdict],
        retry: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(system.env)
        self.system = system
        self.verdict = verdict
        heal_end = active_end + QUIESCE_HEAL
        self.final_end = heal_end + QUIESCE_FINAL
        self.at(active_end, self._heal)
        if retry is not None:
            self.at(heal_end, retry)

    def start(self) -> None:
        self.system.start()

    def _heal(self) -> None:
        system = self.system
        system.network.heal_all()
        for actor in system.env.actors():
            if not actor.alive:
                system.restart_process(actor.name)
        for disk in system.env.disks():
            disk.clear_slowdown()

    def finalize(self) -> Dict[str, Any]:
        violations, stats, recorder = self.verdict()
        return {
            "violations": [(v.prop, v.detail, v.payloads) for v in violations],
            "stats": stats,
            "tails": _trace_tails(recorder, violations),
            "digests": {
                name: [
                    (record.group, record.instance, record.payload)
                    for record in trace.records
                ]
                for name, trace in recorder.traces.items()
            },
            "crashed": sorted(recorder.crashed_ever),
        }


def _build_amcast(spec: Dict[str, Any]) -> _ChaosRun:
    """Build one amcast (sub-)spec: deployment, workload, faults, phases.

    A sub-spec of sharded execution carries the *full* scenario's
    ``active_end``, so every shard runs the same simulated timeline, and
    names the ``merge_learners`` it shares with other shards: their per-ring
    decision streams are tapped into a segment buffer the shard ships at
    every barrier (:meth:`~repro.multiring.process.MultiRingProcess.record_ring_segments`).
    """
    rng = random.Random(spec["seed"] ^ 0x70B0)
    topology = _build_topology(
        spec["sites"], rng, asymmetric=spec.get("wan_asymmetric", False)
    )
    config = _chaos_config(spec)
    system = AtomicMulticast(topology=topology, config=config, seed=spec["seed"])
    processes = {
        name: MultiRingProcess(
            system.env, name, site=site,
            messages_per_round=config.messages_per_round,
        )
        for name, site in sorted(spec["processes"].items())
    }
    for ring_id, members in sorted(spec["rings"].items()):
        system.create_ring(int(ring_id), [(name, roles) for name, roles in members])

    recorder = TraceRecorder()
    for process in processes.values():
        if process.subscribed_groups():
            recorder.attach(process)
    buffer = None
    if spec.get("merge_learners"):
        (name,) = spec["merge_learners"]  # sharded execution merges one learner
        buffer = processes[name].record_ring_segments()

    schedule = FaultSchedule.from_dicts(spec["schedule"])
    schedule.apply(system)

    sim = system.env.simulator

    def send(entry: Dict[str, Any]) -> None:
        sender = processes[entry["sender"]]
        if not sender.alive:
            return  # a crashed client does not submit; nothing was sent
        recorder.record_sent(entry["payload"], entry["sender"], entry["group"], sim.now)
        sender.multicast(entry["group"], payload=entry["payload"], size_bytes=entry["size"])

    for entry in spec["messages"]:
        sim.call_later(entry["at"], send, entry)

    retries = 0

    def retry() -> None:
        """Re-submit what was genuinely lost (a real client's timeout)."""
        nonlocal retries
        for record in recorder.undelivered():
            sender = processes[record.sender]
            if sender.alive and record.group in sender.ring_ids():
                recorder.record_retry(record.payload)
                sender.multicast(record.group, payload=record.payload, size_bytes=64)
                retries += 1

    def verdict() -> Verdict:
        violations = check_delivery_properties(recorder, check_validity=True)
        stats = {
            "sent": len(recorder.sent),
            "retries": retries,
            "deliveries": recorder.delivery_counts(),
            "faults": len(schedule.executed),
            "dropped_messages": system.network.stats.dropped,
        }
        return violations, stats, recorder

    active_end = spec.get("active_end")
    if active_end is None:
        active_end = _active_end(spec, schedule)
    run = _ChaosRun(system, active_end, verdict, retry)
    if buffer is not None:
        run.stream_segments(buffer)
    return run


# --------------------------------------------------------------------------
# Sharded execution (zero cross-ring traffic scenarios)
# --------------------------------------------------------------------------

def shardable_components(spec: Dict[str, Any]) -> Optional[List[List[int]]]:
    """Ring components of a scenario eligible for sharded execution.

    A scenario can shard when its rings split into at least two components
    that are disjoint in their *traffic-generating* members — proposers and
    acceptors.  Learner-only subscribers may span components: they consume
    ring outputs but generate no ring traffic, so each shard hosts its own
    mirror of the learner and the parent's merge stage rebuilds the
    learner's cross-component delivery order from the per-ring decision
    segments the mirrors stream at every barrier (see
    :func:`shared_merge_learners`).

    The fault schedule must contain no site-level faults: partitions and
    isolations act on sites, which may host processes of several components,
    and the resulting channel-state coupling is exactly what sharding
    assumes away.  Crash, restart, disk-spike and ring-reconfiguration
    faults route cleanly to the shard(s) owning their victim — a fault on a
    learner shared across shards is mirrored into each of them, exactly as
    one crash takes down all of that process's per-ring learners in the
    single-process run.

    Returns the components (sorted ring-id lists) or ``None``.
    """
    if spec.get("family") != "amcast":
        return None
    site_actions = {"partition", "heal", "isolate", "rejoin"}
    for event in spec.get("schedule", []):
        if event.get("action") in site_actions:
            return None
    components = ring_components(
        {
            int(rid): [m[0] for m in members if m[1] != "l"]
            for rid, members in spec["rings"].items()
        }
    )
    if len(components) < 2:
        return None
    return components


def shared_merge_learners(
    spec: Dict[str, Any], components: List[List[int]]
) -> List[str]:
    """Learner-only processes whose subscriptions span several components.

    These are the processes the merge stage reconstructs: each shard streams
    their per-ring decision segments, and the parent merges the union
    (sorted names; empty for process-disjoint scenarios).  The generator
    draws at most one.
    """
    learner_rings: Dict[str, set] = {}
    for rid, members in spec["rings"].items():
        for name, roles in members:
            # Any membership with a learner role counts towards the merge —
            # a "pal" member's learner half feeds the same merger as an
            # "l"-only subscription does.
            if "l" in roles:
                learner_rings.setdefault(name, set()).add(int(rid))
    component_of = {
        int(ring): index
        for index, component in enumerate(components)
        for ring in component
    }
    return sorted(
        name
        for name, rings in learner_rings.items()
        if len({component_of[ring] for ring in rings if ring in component_of}) > 1
    )


def _split_amcast_spec(
    spec: Dict[str, Any],
    component: List[int],
    active_end: float,
    merge_learners: Sequence[str] = (),
) -> Dict[str, Any]:
    """The sub-spec of one ring component (same seed, sites and timeline)."""
    rings = {rid: spec["rings"][_ring_key(spec, rid)] for rid in component}
    members = {m[0] for ring in rings.values() for m in ring}
    schedule = []
    for event in spec["schedule"]:
        action = event.get("action")
        params = event.get("params", {})
        if action in ("crash", "restart"):
            if params.get("process") in members:
                schedule.append(event)
        elif action in ("remove_from_ring", "add_to_ring"):
            if int(params.get("ring_id", -1)) in component:
                schedule.append(event)
        else:  # disk spikes and anything site-free applies everywhere
            schedule.append(event)
    sub = dict(spec)
    sub["rings"] = rings
    sub["processes"] = {
        name: site for name, site in spec["processes"].items() if name in members
    }
    sub["messages"] = [m for m in spec["messages"] if m["group"] in component]
    sub["schedule"] = schedule
    sub["active_end"] = active_end
    sub["merge_learners"] = [name for name in merge_learners if name in members]
    return sub


def _ring_key(spec: Dict[str, Any], ring_id: int):
    """Ring keys survive a JSON round trip as strings; accept both."""
    return ring_id if ring_id in spec["rings"] else str(ring_id)


def _run_amcast_sharded(
    spec: Dict[str, Any],
    components: List[List[int]],
    workers: int,
) -> Tuple[List[Violation], Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """Run one sub-scenario per ring component as a shard of the parallel engine.

    Returns merged ``(violations, stats, trace_tails, delivery_digests)``;
    the digests (full per-learner delivery sequences) are what the
    determinism tests compare across worker counts.

    Every shard runs to the scenario's final phase boundary in
    :data:`SEGMENT_INTERVAL` barrier windows.  A learner shared across
    components (the generator draws at most one) is mirrored into every
    shard that hosts one of its rings; its per-shard partial digests are
    keyed ``name@shard<id>``, and each mirror ships its per-ring decision
    segments at every barrier — through the wire codec, with real crash and
    restart marks — into a parent-side
    :class:`~repro.core.smr.ReactiveReplicaHost` driving a live replica.  The
    learner's cross-component delivery digest is recorded under its plain
    name, and :func:`_merge_violations` checks it.
    """
    schedule = FaultSchedule.from_dicts(spec["schedule"])
    active_end = _active_end(spec, schedule)
    merge_learners = shared_merge_learners(spec, components)
    if len(merge_learners) > 1:
        raise ValueError(
            f"sharded execution merges one shared learner, the spec has {merge_learners}"
        )
    specs = [
        ShardSpec(
            shard_id=index,
            build=_build_amcast,
            payload=_split_amcast_spec(spec, component, active_end, merge_learners),
        )
        for index, component in enumerate(components)
    ]
    host = sink = None
    failures: List[str] = []
    learner = merge_learners[0] if merge_learners else None
    if learner is not None:
        from ..kvstore.replica import MRPStoreReplica

        groups = sorted(
            int(rid) for rid, members in spec["rings"].items()
            if any(member == learner and "l" in roles for member, roles in members)
        )
        replica = MRPStoreReplica(Environment(), f"{learner}-reactive", respond_to_clients=False)
        host = ReactiveReplicaHost(replica, groups, spec.get("messages_per_round", 1))

        def sink(segments_by_shard: Dict[int, Any]) -> None:
            # The first malformed barrier ends the merge: what it merged so
            # far is still checked, nothing after it is fed.
            if not failures:
                try:
                    host.sink(segments_by_shard)
                except ValueError as exc:
                    failures.append(f"{learner}: {exc}")

    run = run_sharded(
        specs,
        workers=workers,
        until=active_end + QUIESCE_HEAL + QUIESCE_FINAL,
        segment_interval=SEGMENT_INTERVAL,
        segment_sink=sink,
    )

    violations: List[Violation] = []
    tails: Dict[str, Any] = {}
    digests: Dict[str, Any] = {}
    crashed: set = set()
    shared = set(merge_learners)
    stats: Dict[str, Any] = {
        "sent": 0,
        "retries": 0,
        "deliveries": {},
        "faults": 0,
        "dropped_messages": 0,
    }
    for shard_id in sorted(run.results):
        shard = run.results[shard_id]
        violations.extend(Violation(*violation) for violation in shard["violations"])
        for name, tail in shard["tails"].items():
            tails[f"{name}@shard{shard_id}" if name in shared else name] = tail
        for name, digest in shard["digests"].items():
            digests[f"{name}@shard{shard_id}" if name in shared else name] = digest
        crashed.update(shard["crashed"])
        shard_stats = shard["stats"]
        for key in ("sent", "retries", "dropped_messages"):
            stats[key] += shard_stats[key]
        for name, count in shard_stats["deliveries"].items():
            key = f"{name}@shard{shard_id}" if name in shared else name
            stats["deliveries"][key] = count
    # Broadcast faults (disk spikes) execute in every shard's sub-schedule;
    # summing the per-shard counts would multiply them by the shard count.
    # The scenario's fault count is the full schedule's, exactly as in the
    # single-process run (the epilogue always runs past the last event).
    stats["faults"] = len(spec["schedule"])
    stats["sharded"] = {
        "workers": run.workers,
        "shards": [list(component) for component in components],
        "wall_clock_s": round(run.wall_clock, 4),
    }
    if host is not None:
        in_shard = [
            digest for key, digest in digests.items() if key.startswith(f"{learner}@shard")
        ]
        digests[learner] = [
            (group, instance, value.payload) for group, instance, value in host.deliveries
        ]
        violations.extend(_merge_violations(learner, host, failures, in_shard))
        stats["sharded"]["merge_learners"] = merge_learners
        stats["sharded"]["reactive_merge"] = {learner: {
            "barriers": host.barriers_ingested,
            "applied": host.commands_applied,
            "stalls": len(host.stall_windows),
        }}
    if crashed:
        stats["sharded"]["crashed"] = sorted(crashed)
    return violations, stats, tails, digests


def _merge_violations(
    name: str,
    host: ReactiveReplicaHost,
    failures: List[str],
    in_shard: List[List[Tuple[int, int, Any]]],
) -> List[Violation]:
    """The shared learner's merge-stage invariants.

    * **merge-stream-divergence** — the host rejected a barrier (a
      re-emitted instance deciding a different value, an entry out of its
      ring's order, a segment out of place), or the live merged order
      differs from the offline replay of the streamed segments;
    * **reactive-merge-order** — each ring's merged payloads must be a
      prefix of what the learner's in-shard mirror delivered from that ring
      (``in_shard``: the mirrors' ``(group, instance, payload)`` traces,
      re-deliveries after a restart counted once) — the round-robin may
      leave a ring's tail pending, never reorder it;
    * **reactive-store-convergence** — the hosted replica applied exactly
      one command per merged delivery.
    """
    merged = [(group, instance, value.payload) for group, instance, value in host.deliveries]
    violations = [Violation("merge-stream-divergence", detail) for detail in failures]
    if not failures:
        offline = host.offline_deliveries()
        if merged != [(group, instance, value.payload) for group, instance, value in offline]:
            violations.append(Violation(
                "merge-stream-divergence",
                f"{name}: streaming merge delivered {len(merged)} entries, "
                f"offline replay {len(offline)}; sequences diverge",
            ))
    for group in host.groups:
        delivered: Dict[Tuple[int, Any], None] = {}
        for trace in in_shard:
            for g, instance, payload in trace:
                if g == group:
                    delivered.setdefault((instance, payload))
        expected = [payload for _, payload in delivered]
        observed = [payload for g, _, payload in merged if g == group]
        if observed != expected[:len(observed)]:
            violations.append(Violation(
                "reactive-merge-order",
                f"{name}: ring {group} payloads left the merge out of the "
                "order its in-shard learner delivered them",
            ))
    if host.commands_applied != len(merged):
        violations.append(Violation(
            "reactive-store-convergence",
            f"{name}: reactive replica applied {host.commands_applied} commands, "
            f"expected {len(merged)} merged deliveries",
        ))
    return violations


class _RywClient(Actor):
    """Closed-loop client checking read-your-writes on private keys.

    Alternates ``update`` and ``read`` on a small set of keys only it writes;
    every write uses a strictly larger value size, so a read answered with a
    smaller size than the client's last acknowledged write proves a replica
    served stale (out-of-order) state.
    """

    def __init__(self, env, name, frontends_by_group, group_for_key, keys, max_requests):
        super().__init__(env, name)
        self._frontends = dict(frontends_by_group)
        self._group_for_key = group_for_key
        self._keys = list(keys)
        self._max_requests = max_requests
        self._seq = 0
        self._outstanding: Dict[int, Tuple[str, str, int]] = {}
        self._acked_size: Dict[str, int] = {}
        self.violations: List[Violation] = []
        self.completed = 0

    def on_start(self) -> None:
        self._issue()

    def _issue(self) -> None:
        if self._seq >= self._max_requests or not self.alive:
            return
        seq = self._seq
        self._seq += 1
        key = self._keys[(seq // 2) % len(self._keys)]
        size = 64 + seq
        if seq % 2 == 0:
            command = Command(
                op="update" if key in self._acked_size else "insert",
                args=(key, None, size),
                group_id=self._group_for_key(key),
                size_bytes=size,
                command_id=seq,
                client=self.name,
            )
        else:
            command = Command(
                op="read",
                args=(key,),
                group_id=self._group_for_key(key),
                size_bytes=32,
                command_id=seq,
                client=self.name,
            )
        self._outstanding[seq] = (command.op, key, size)
        self.send(
            self._frontends[command.group_id],
            ClientRequest(command.size_bytes, self.name, command),
        )

    def on_message(self, sender: str, message) -> None:
        if not isinstance(message, ClientResponse):
            return
        entry = self._outstanding.pop(message.request_id, None)
        if entry is None:
            return  # duplicate response from another replica
        op, key, size = entry
        value = message.result
        if op in ("update", "insert"):
            self._acked_size[key] = size
        elif op == "read" and key in self._acked_size:
            observed = value.get("size", -1) if isinstance(value, dict) else -1
            if not (isinstance(value, dict) and value.get("found")) or observed < self._acked_size[key]:
                self.violations.append(Violation(
                    "read-your-writes",
                    f"{self.name} read {key!r} and saw size {observed} after its "
                    f"write of size {self._acked_size[key]} was acknowledged",
                ))
        self.completed += 1
        self._issue()


def _build_kvstore(spec: Dict[str, Any]) -> _ChaosRun:
    from ..kvstore.service import MRPStoreService

    config = _chaos_config(spec, checkpoint_interval=0.5)
    system = AtomicMulticast(config=config, seed=spec["seed"])
    groups = list(range(spec["partitions"]))
    service = MRPStoreService(
        system,
        partition_groups=groups,
        acceptors_per_partition=3,
        replicas_per_partition=spec["replicas"],
    )
    recorder = TraceRecorder()
    for replica in service.all_replicas():
        recorder.attach(replica)

    frontends = service.frontend_map()
    clients = [
        _RywClient(
            system.env,
            entry["name"],
            frontends_by_group=frontends,
            group_for_key=service.partitioner.group_for_key,
            keys=[f"{entry['name']}-k{i}" for i in range(entry["keys"])],
            max_requests=entry["requests"],
        )
        for entry in spec["clients"]
    ]

    swarm = None
    swarm_spec = spec.get("swarm")
    if swarm_spec:
        from ..core.swarm import ChurnSpec, ClientSwarm, shared_factory
        from ..kvstore.client import MRPStoreCommands, kv_request_factory
        from ..workloads.arrival import flash_crowd
        from ..workloads.kv import preload_keys, update_only_workload

        # The crowd writes its own prefixed keyspace so it can never collide
        # with the RYW clients' private keys (their oracle stays sound).
        service.preload(
            preload_keys(swarm_spec["key_count"], value_bytes=256, key_prefix="swarm-key")
        )
        workload = update_only_workload(
            random.Random(spec["seed"] ^ 0x5A3F),
            key_count=swarm_spec["key_count"],
            value_bytes=256,
            key_prefix="swarm-key",
        )
        swarm = ClientSwarm(
            system.env,
            "chaos-swarm",
            frontends_by_group=frontends,
            request_factory=shared_factory(
                kv_request_factory(MRPStoreCommands(service.partitioner), workload)
            ),
            clients=swarm_spec["users"],
            mode="open",
            arrival=flash_crowd(
                base=swarm_spec["base_rate"],
                peak=swarm_spec["base_rate"] * swarm_spec["peak_factor"],
                at=swarm_spec["flash_at"],
                ramp=swarm_spec["ramp"],
                hold=swarm_spec["hold"],
                decay=swarm_spec["decay"],
            ),
            churn=ChurnSpec(
                rate=swarm_spec["churn_rate"], downtime=swarm_spec["downtime"]
            ),
            metric_prefix="chaos.swarm",
        )

    schedule = FaultSchedule.from_dicts(spec["schedule"])
    schedule.apply(system)

    def verdict() -> Verdict:
        # Service-level invariants only: commands lack a hashable
        # cross-replica identity, so the ordering oracle does not run for
        # this family — a divergence in delivery order surfaces as store
        # divergence or a stale read instead.
        violations: List[Violation] = []
        for client in clients:
            violations.extend(client.violations)
        violations.extend(
            check_store_convergence({g: service.replicas[g] for g in groups})
        )
        stats = {
            "completed": {c.name: c.completed for c in clients},
            "faults": len(schedule.executed),
            "deliveries": recorder.delivery_counts(),
        }
        if swarm is not None:
            metrics = system.env.metrics
            stats["swarm"] = {
                "users": swarm.clients,
                "issued": swarm.issued,
                "completed": swarm.completed,
                "online": swarm.online,
                "disconnects": int(metrics.counter("chaos.swarm.churn.disconnects").value),
                "reconnects": int(metrics.counter("chaos.swarm.churn.reconnects").value),
            }
        return violations, stats, recorder

    return _ChaosRun(system, _active_end(spec, schedule), verdict)


def _build_dlog(spec: Dict[str, Any]) -> _ChaosRun:
    from ..dlog.service import DLogService

    config = _chaos_config(spec, checkpoint_interval=0.5)
    system = AtomicMulticast(config=config, seed=spec["seed"])
    log_ids = list(range(spec["logs"]))
    service = DLogService(
        system,
        log_ids=log_ids,
        acceptors_per_log=3,
        replica_count=spec["replicas"],
    )
    recorder = TraceRecorder()
    for replica in service.replicas:
        recorder.attach(replica)

    client = service.create_append_client(
        "chaos-appender",
        concurrency=2,
        append_bytes=256,
        max_requests=spec["append_requests"],
        multi_append_every=spec["multi_append_every"] or None,
    )

    schedule = FaultSchedule.from_dicts(spec["schedule"])
    schedule.apply(system)

    def verdict() -> Verdict:
        violations = check_log_convergence(service.replicas, log_ids)
        stats = {
            "completed": client.completed,
            "faults": len(schedule.executed),
            "deliveries": recorder.delivery_counts(),
        }
        return violations, stats, recorder

    return _ChaosRun(system, _active_end(spec, schedule), verdict)


# --------------------------------------------------------------------------
# Repro artifacts
# --------------------------------------------------------------------------

def _trace_tails(recorder: TraceRecorder, violations: Sequence[Violation]) -> Dict[str, Any]:
    """Every traced learner's last deliveries, as plain dicts.

    A delivery of a payload some violation names is kept however early it
    came: the last 50 alone can hide the one that matters.
    """
    # Matched by equality, never hashed: a traced ``Command`` is unhashable.
    named = [payload for violation in violations for payload in violation.payloads]
    tails = {}
    for name, trace in recorder.traces.items():
        earlier = [record for record in trace.records[:-50] if record.payload in named]
        tails[name] = [
            {
                "time": record.time,
                "incarnation": record.incarnation,
                "group": record.group,
                "instance": record.instance,
                "payload": repr(record.payload),
            }
            for record in earlier + trace.tail(50)
        ]
    return tails


def _dump_artifact(
    spec: Dict[str, Any],
    result: ScenarioResult,
    trace_tails: Dict[str, Any],
    artifacts_dir: Optional[str],
) -> Optional[str]:
    directory = artifacts_dir or os.environ.get("CHAOS_ARTIFACT_DIR", "chaos-artifacts")
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"chaos-seed{result.seed}.json")
        payload = {
            "seed": result.seed,
            "family": result.family,
            "replay": f"PYTHONPATH=src python -m repro.chaos --seed {result.seed}",
            "violations": [{"prop": v.prop, "detail": v.detail} for v in result.violations],
            "stats": result.stats,
            "spec": spec,
            "trace_tails": trace_tails,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=repr)
        return path
    except OSError:  # pragma: no cover - read-only filesystem etc.
        return None


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

_CLI_EPILOG = """\
examples:
  python -m repro.chaos --seed 7              replay the scenario of seed 7
  python -m repro.chaos --seed 0 --count 200  sweep seeds 0..199 (the CI matrix)
  python -m repro.chaos --seed 7 --workers 2  shard eligible scenarios over 2 cores

Every scenario is a pure function of its seed: the topology, deployment
family (atomic multicast / MRP-Store / dLog), workload and fault timeline
all derive from it, so a failure seen anywhere replays exactly from the
seed alone.  On a violation the runner prints the violated property and
writes chaos-artifacts/chaos-seed<SEED>.json (spec, fault timeline,
violations, per-learner trace tails) with the replay command inside.

--workers N opts eligible scenarios into sharded execution: an
atomic-multicast scenario whose rings form two or more components disjoint
in their proposers/acceptors runs one component per shard — including
shared-learner draws, where a learner-only subscriber spans every ring: its
mirrors stream per-ring decision segments at every barrier into a
parent-side merge stage that rebuilds its cross-component delivery order,
checked against the offline replay and the mirrors' own delivery traces.
The invariant verdict is identical to the single-process run.  Scenarios with site-level faults or rings entangled by
traffic-generating processes fall back to one process.

Environment: CHAOS_ARTIFACT_DIR overrides the artifact directory.
Run with PYTHONPATH=src from the repository root."""


def main(argv: Optional[List[str]] = None) -> int:
    """Run one or more scenarios from the command line.

    ``python -m repro.chaos --seed 7`` replays seed 7;
    ``--count N`` sweeps seeds ``seed .. seed+N-1``;
    ``--workers N`` shards eligible scenarios over ``N`` processes.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run seeded chaos scenarios against the Multi-Ring Paxos "
        "reproduction and check the paper's atomic-multicast invariants.",
        epilog=_CLI_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0, help="first scenario seed")
    parser.add_argument("--count", type=int, default=1, help="number of consecutive seeds")
    parser.add_argument("--artifacts", default=None, help="repro artifact directory")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for scenarios eligible for sharded execution",
    )
    args = parser.parse_args(argv)

    failures = 0
    failed_seeds: List[int] = []
    for seed in range(args.seed, args.seed + args.count):
        result = run_scenario(seed, artifacts_dir=args.artifacts, workers=args.workers)
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} seed={seed} family={result.family} stats={result.stats}")
        if not result.ok:
            failures += 1
            failed_seeds.append(seed)
            for violation in result.violations:
                print(f"  {violation}")
            if result.artifact_path:
                print(f"  artifact: {result.artifact_path}")
    total = args.count
    if failures:
        print(
            f"chaos: {failures}/{total} scenario(s) VIOLATED the oracle "
            f"(seeds {failed_seeds}) — exit 1"
        )
    else:
        print(f"chaos: {total}/{total} scenario(s) passed")
    return 1 if failures else 0

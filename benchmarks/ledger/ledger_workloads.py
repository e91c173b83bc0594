"""The four pinned figure points and what the benchmark reads from each.

Every workload is one call into a **public** runner of :mod:`repro.bench`
with stable arguments only (never a knob ROADMAP item 2 wants to delete).
What the runners' ``ExperimentResult`` does not forward — the latency
recorder's percentiles, the kernel's event count, the replicas' final state —
is read through two once-per-slice observers (:class:`Observer`): one on
``AtomicMulticast.start`` that remembers the deployments a slice built, one on
the ``run_sharded`` name the sharded runner calls that remembers its
``ParallelRunResult``.  Neither sits on a per-event path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.bench.parallel as bench_parallel
from repro.bench import run_fig3_point, run_fig4_point, run_fig6_sharded
from repro.core.amcast import AtomicMulticast
from repro.core.client import CommandBatch
from repro.core.packing import iter_values
from repro.core.smr import StateMachineReplica
from repro.core.swarm import ClientSwarm
from repro.kvstore.replica import MRPStoreReplica
from repro.multiring.process import MultiRingProcess
from repro.sim.disk import StorageMode
from repro.workloads.arrival import constant

__all__ = ["Observer", "SliceReading", "Workload", "WORKLOADS", "workload_named"]


# ---------------------------------------------------------------------------
# Once-per-slice observers
# ---------------------------------------------------------------------------

class Observer:
    """Remembers what a slice built and what the sharded engine returned."""

    def __init__(self, hash_deliveries: bool = False) -> None:
        self.hash_deliveries = hash_deliveries
        self.systems: List[AtomicMulticast] = []
        self.sharded_runs: List[Any] = []
        self.first_start: Optional[float] = None
        #: learner name → running CRC after each delivery (traced runs only)
        self.delivery_digests: Dict[str, List[int]] = {}
        self._originals: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Drop the previous slice's deployments (frees their memory)."""
        self.systems.clear()
        self.sharded_runs.clear()
        self.delivery_digests.clear()
        self.first_start = None

    def install(self) -> None:
        original_start = AtomicMulticast.start
        original_run_sharded = bench_parallel.run_sharded
        observer = self

        def start(system: AtomicMulticast) -> None:
            if system not in observer.systems:
                if observer.first_start is None:
                    observer.first_start = perf_counter()
                observer.systems.append(system)
                if observer.hash_deliveries:
                    observer._hash_learners(system)
            original_start(system)

        def run_sharded(*args: Any, **kwargs: Any) -> Any:
            run = original_run_sharded(*args, **kwargs)
            observer.sharded_runs.append(run)
            return run

        AtomicMulticast.start = start  # type: ignore[method-assign]
        bench_parallel.run_sharded = run_sharded
        self._originals = [
            (AtomicMulticast, "start", original_start),
            (bench_parallel, "run_sharded", original_run_sharded),
        ]

    def uninstall(self) -> None:
        while self._originals:
            holder, attribute, original = self._originals.pop()
            setattr(holder, attribute, original)

    def _hash_learners(self, system: AtomicMulticast) -> None:
        """Chain a CRC over every learner's delivery sequence (traced runs)."""
        for process in system.processes():
            if not isinstance(process, MultiRingProcess) or not process.subscribed_groups():
                continue
            digests = self.delivery_digests.setdefault(process.name, [])
            deliver = process.on_deliver

            def on_deliver(group_id, instance, value, _deliver=deliver, _digests=digests):
                previous = _digests[-1] if _digests else 0
                identity = f"{group_id}:{instance}:{value.proposer}:{value.proposal_id}"
                _digests.append(zlib.crc32(identity.encode(), previous))
                _deliver(group_id, instance, value)

            process.on_deliver = on_deliver  # type: ignore[method-assign]


# ---------------------------------------------------------------------------
# What one slice yields
# ---------------------------------------------------------------------------

@dataclass
class SliceReading:
    """Everything read from one slice besides its host time."""

    #: exact simulated metrics and counts — must repeat bit for bit across
    #: the slices of a run (same seed, same call)
    exact: Dict[str, float] = field(default_factory=dict)
    #: host-side quantities that legitimately differ slice to slice
    host: Dict[str, float] = field(default_factory=dict)
    #: failed correctness checks (empty = correct)
    problems: List[str] = field(default_factory=list)


def _ring_accounting(systems: Sequence[AtomicMulticast]) -> Dict[str, float]:
    """Walk every ring's decision log once: instances, skips, commands.

    Reads the coordinator's acceptor (it votes in every instance of its
    ring) through the public ``node()``/``decided_from`` accessors.
    """
    instances = skips = commands = 0
    for system in systems:
        ring_ids = sorted({
            ring_id
            for process in system.processes()
            if isinstance(process, MultiRingProcess)
            for ring_id in process.ring_ids()
        })
        for ring_id in ring_ids:
            coordinator = system.process(system.ring(ring_id).coordinator)
            acceptor = coordinator.node(ring_id).acceptor
            for _instance, value in acceptor.decided_from(0):
                instances += 1
                if value.is_skip():
                    skips += 1
                    continue
                for leaf in iter_values(value):
                    payload = leaf.payload
                    commands += len(payload) if isinstance(payload, CommandBatch) else 1
    return {"instances": float(instances), "skip_instances": float(skips),
            "commands": float(commands)}


def _layer_counts(systems: Sequence[AtomicMulticast]) -> Dict[str, float]:
    """Whole-slice counts read at the layer boundaries after a slice."""
    disk_writes = disk_bytes = merge_deliveries = applied = issued = 0
    for system in systems:
        for disk in system.env.disks():
            disk_writes += disk.write_count
            disk_bytes += disk.bytes_written
        for process in system.processes():
            if isinstance(process, MultiRingProcess) and process.merger is not None:
                merge_deliveries += process.merger.delivered_count
            if isinstance(process, StateMachineReplica):
                applied += process.commands_applied
            if isinstance(process, ClientSwarm):
                issued += process.issued
    return {
        "disk_writes": float(disk_writes),
        "disk_bytes": float(disk_bytes),
        "merge_deliveries": float(merge_deliveries),
        "commands_applied": float(applied),
        "swarm_issued": float(issued),
    }


def _in_process_counts(systems: Sequence[AtomicMulticast]) -> Dict[str, float]:
    """``ring.*`` and ``layer.*`` counts of the deployments a slice built."""
    counts = {f"ring.{k}": v for k, v in _ring_accounting(systems).items()}
    counts.update({f"layer.{k}": v for k, v in _layer_counts(systems).items()})
    return counts


def _latency_reading(recorder: Any) -> Dict[str, float]:
    return {
        "sim_latency_p50_ms": recorder.percentile(50) * 1e3,
        "sim_latency_p99_ms": recorder.percentile(99) * 1e3,
        "latency_samples": float(recorder.count),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One pinned figure point."""

    name = ""
    why = ""
    #: closed or open loop, with its client count or rate (printed)
    loop = ""
    #: worker processes of the timed slice.  The traced run passes
    #: ``workers=1``: the same events, in-process where the spans see them.
    workers = 1
    #: whether the traced run chains a CRC over every learner's deliveries
    #: (a per-delivery observer, so never on untraced slices)
    checks_delivery_order = False

    def call(self, seed: int, scale: float = 1.0, workers: Optional[int] = None) -> Any:
        """The timed slice: one public-runner call (``scale`` < 1 for smoke)."""
        raise NotImplementedError

    def probe(self, seed: int) -> Any:
        """The same call over a few simulated milliseconds: imports, build,
        lazy set-up — what ``setup_s`` times in fresh interpreters."""
        raise NotImplementedError

    def read(self, result: Any, observer: Observer) -> SliceReading:
        """Simulated metrics, counts and correctness of the slice just run."""
        raise NotImplementedError

    def verify(self, seed: int) -> List[str]:
        """Extra differential slices of the workload; returns what failed."""
        return []


class _RingWorkload(Workload):
    """Figure 3: one ring, three proposer/acceptor/learners, closed loop."""

    checks_delivery_order = True
    batching = False
    duration = 0.4
    threads = 10

    def _run(self, seed: int, warmup: float, duration: float) -> Any:
        return run_fig3_point(
            2048, StorageMode.IN_MEMORY, warmup=warmup, duration=duration,
            threads_per_proposer=self.threads, seed=seed,
            batching_enabled=self.batching,
        )

    def call(self, seed: int, scale: float = 1.0, workers: Optional[int] = None) -> Any:
        return self._run(seed, 0.1 * scale, self.duration * scale)

    def probe(self, seed: int) -> Any:
        return self._run(seed, 0.005, 0.005)

    def read(self, result: Any, observer: Observer) -> SliceReading:
        reading = SliceReading()
        (system,) = observer.systems
        concurrency = 3 * self.threads
        exact = reading.exact
        exact.update(_in_process_counts([system]))
        exact.update(_latency_reading(system.env.metrics.latency("fig3.latency")))
        exact["sim_throughput_ops"] = result.metrics["ops_per_s"]
        exact["events"] = float(system.env.simulator.processed_events)
        exact["commands"] = commands = exact["ring.commands"]
        # Closed loop: everything issued is ordered or among the `concurrency`
        # in flight.  An ordered instance fails when a learner has not
        # delivered it although it is older than everything in flight.
        learners = [p for p in system.processes() if isinstance(p, MultiRingProcess)]
        decided = system.process(system.ring(0).coordinator).node(0).acceptor.highest_decided
        lagging = sum(
            max(0, decided - concurrency - p.delivered_position(0)) for p in learners
        )
        exact["ops_attempted"] = commands + concurrency
        exact["ops_failed"] = float(lagging)
        if lagging:
            reading.problems.append(f"{lagging} decided instances undelivered at a learner")
        if observer.hash_deliveries:
            self._check_sequences(observer, reading)
        return reading

    @staticmethod
    def _check_sequences(observer: Observer, reading: SliceReading) -> None:
        """All three learners delivered the same sequence (common prefix)."""
        digests = observer.delivery_digests
        common = min((len(d) for d in digests.values()), default=0)
        if len(digests) != 3 or common == 0:
            reading.problems.append("delivery digests missing for a learner")
            return
        heads = {d[common - 1] for d in digests.values()}
        if len(heads) != 1:
            reading.problems.append("learners delivered different sequences")
        reading.exact["delivery_digest"] = float(next(iter(heads)))
        reading.exact["delivery_digest_length"] = float(common)


class RingUnbatched(_RingWorkload):
    name = "ring-unbatched"
    loop = "closed loop, 3 proposers x 10 outstanding"
    why = ("one consensus instance per command (7.8 events/command): kernel dispatch, "
           "network model and per-message Ring Paxos handlers do nearly all the work")


class RingBatched(_RingWorkload):
    name = "ring-batched"
    why = ("same ring with coordinator batching, size-triggered (1.3 events/command): cost "
           "moves to value packing/unpacking and delivery callbacks, away from the kernel")
    loop = "closed loop, 3 proposers x 40 outstanding"
    batching = True
    duration = 1.2
    # 40 outstanding per proposer keeps the 32 KB batches size-triggered; at
    # the figure's 10 the size and timeout triggers race and the simulated
    # latency is bimodal in the seed (README, "Workloads").
    threads = 40


class KvGlobalOpen(Workload):
    """Figure 4: MRP-Store, 3 partitions x 3 replicas + global ring, YCSB-A."""

    name = "kv-global-open"
    why = ("MRP-Store YCSB-A, open loop at a fixed 24k ops/s from a 100k-user swarm: multi-ring "
           "merge with rate-leveling skips, SMR apply, kvstore, WAL/disk, swarm wheel")
    rate = 24_000.0
    limit_s = 0.020
    loop = "open loop, 24000 ops/s offered by 100000 simulated users, 20 ms limit"

    def _run(self, seed: int, warmup: float, duration: float) -> Any:
        return run_fig4_point(
            "mrp-store", "A", warmup=warmup, duration=duration, seed=seed,
            client_engine="swarm", simulated_users=100_000, client_mode="open",
            arrival=constant(self.rate), slo={"gold": self.limit_s},
        )

    def call(self, seed: int, scale: float = 1.0, workers: Optional[int] = None) -> Any:
        return self._run(seed, 0.5 * scale, 1.5 * scale)

    def probe(self, seed: int) -> Any:
        return self._run(seed, 0.005, 0.005)

    def read(self, result: Any, observer: Observer) -> SliceReading:
        reading = SliceReading()
        (system,) = observer.systems
        metrics = system.env.metrics
        (swarm,) = [p for p in system.processes() if isinstance(p, ClientSwarm)]
        exact = reading.exact
        exact.update(_in_process_counts([system]))
        exact.update(_latency_reading(metrics.latency("ycsb.latency")))
        exact["sim_throughput_ops"] = result.metrics["throughput_ops"]
        exact["events"] = float(system.env.simulator.processed_events)
        exact["commands"] = exact["ring.commands"]
        # Open loop: a request fails when it misses the limit (counted by the
        # swarm's SLO tracker) or is still unanswered although older than it.
        violations = metrics.counter("slo.gold.violations").value
        overdue = max(0.0, swarm.outstanding - self.rate * self.limit_s)
        exact["ops_attempted"] = float(swarm.issued)
        exact["ops_failed"] = violations + overdue
        self._check_replicas(system, swarm, reading)
        return reading

    @staticmethod
    def _check_replicas(system: AtomicMulticast, swarm: ClientSwarm,
                        reading: SliceReading) -> None:
        """Replicas of a partition end in the same state.

        The window ends with requests in flight, so the load is stopped and
        the rings drain for 100 simulated ms before the stores are compared.
        """
        swarm.crash()
        system.run(until=system.env.now + 0.1)
        partitions: Dict[Tuple[int, ...], List[MRPStoreReplica]] = {}
        for process in system.processes():
            if isinstance(process, MRPStoreReplica):
                partitions.setdefault(tuple(process.subscribed_groups()), []).append(process)
        if len(partitions) != 3 or any(len(r) != 3 for r in partitions.values()):
            reading.problems.append("expected 3 partitions of 3 replicas")
        for groups, replicas in sorted(partitions.items()):
            first = replicas[0]
            for other in replicas[1:]:
                if other.commands_applied != first.commands_applied:
                    reading.problems.append(
                        f"partition {groups}: {other.name} applied "
                        f"{other.commands_applied} commands, {first.name} {first.commands_applied}"
                    )
                if other.store.snapshot() != first.store.snapshot():
                    reading.problems.append(
                        f"partition {groups}: {other.name} and {first.name} stores differ"
                    )


class DlogSharded(Workload):
    """Figure 6, original shape: 2 log rings + common ring, shared learner."""

    name = "dlog-sharded-w2"
    why = ("dLog, 2 log rings + common ring on 2 worker processes with the parent-hosted "
           "reactive merge: the only workload on sim.parallel, MergeCursor, ReactiveReplicaHost")
    workers = 2
    rings = 2
    clients_per_ring = 8
    loop = "closed loop, 2 rings x 8 outstanding"

    def _run(self, seed: int, workers: int, warmup: float, duration: float,
             record_deliveries: bool = False) -> Any:
        return run_fig6_sharded(
            self.rings, workers=workers, clients_per_ring=self.clients_per_ring,
            warmup=warmup, duration=duration, seed=seed, configuration="shared",
            record_deliveries=record_deliveries,
        )

    def call(self, seed: int, scale: float = 1.0, workers: Optional[int] = None) -> Any:
        return self._run(seed, workers or self.workers, 0.25 * scale, 2.0 * scale)

    def probe(self, seed: int) -> Any:
        return self._run(seed, self.workers, 0.1, 0.15)

    def read(self, result: Any, observer: Observer) -> SliceReading:
        reading = SliceReading()
        run = observer.sharded_runs[-1]
        metrics = result.metrics
        rings = range(self.rings)
        exact = reading.exact
        # Two symmetric rings, one recorder each: report the slower ring.
        exact["sim_latency_p50_ms"] = max(
            run.results[r][f"fig6.ring{r}.latency.p50_ms"] for r in rings)
        exact["sim_latency_p99_ms"] = max(
            run.results[r][f"fig6.ring{r}.latency.p99_ms"] for r in rings)
        exact["latency_samples"] = float(min(
            run.results[r][f"fig6.ring{r}.latency.count"] for r in rings))
        exact["sim_throughput_ops"] = metrics["aggregate_ops"]
        exact["events"] = metrics["events_total"]
        commands = metrics["reactive_commands_applied"]
        exact["commands"] = commands
        exact["barriers"] = metrics["barrier_count"]
        acknowledged = sum(
            run.results[r][f"fig6.ring{r}.throughput.total"] for r in rings)
        # Closed loop.  A command acknowledged to its client but missing from
        # the merged state the reactive replica applied is a lost write.
        exact["ops_attempted"] = commands + self.rings * self.clients_per_ring
        exact["ops_failed"] = max(0.0, acknowledged - commands)
        if metrics["reactive_stall_count"]:
            reading.problems.append("reactive merge stalled without a fault")
        if observer.systems:  # in-process shards (workers=1)
            exact.update(_in_process_counts(observer.systems))
            exact["layer.commands_applied"] += commands  # the parent-hosted replica
            if exact["ring.commands"] < commands:
                reading.problems.append("more commands applied than the rings ordered")
        host = reading.host
        for key in ("ipc_bytes", "ipc_messages", "merge_stage_s", "merge_overlap_fraction",
                    "shard_wall_clock_s", "worker_windows_skipped"):
            host[key] = metrics[key]
        return reading

    def verify(self, seed: int) -> List[str]:
        """The differential slice: streaming merge == offline merge == workers=1."""
        problems: List[str] = []
        digests = {}
        for workers in (self.workers, 1):
            result = self._run(seed, workers, 0.1, 0.65, record_deliveries=True)
            series = result.series
            if series["merged_deliveries"] != series["merged_deliveries_offline"]:
                problems.append(f"workers={workers}: streaming and offline merge differ")
            if not any(series["merged_deliveries"].values()):
                problems.append(f"workers={workers}: verification slice delivered nothing")
            digests[workers] = (series["merged_deliveries"], series["deliveries"])
        if digests[self.workers] != digests[1]:
            problems.append(f"workers={self.workers} and workers=1 delivery digests differ")
        return problems


WORKLOADS: Tuple[Workload, ...] = (RingUnbatched(), RingBatched(), KvGlobalOpen(), DlogSharded())


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)

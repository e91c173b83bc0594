"""Figure 3 — Multi-Ring Paxos baseline with a dummy service.

One ring with three processes, all of them proposers, acceptors and learners,
one of the acceptors being the coordinator.  Proposers keep ten requests
outstanding each ("10 threads"); request sizes sweep 512 B to 32 KB; five
storage modes are compared (in-memory, async/sync on HDD and SSD); ring
batching is disabled.  Four metrics are reported: throughput in Mbps, mean
latency, coordinator CPU utilisation and the latency CDF for 32 KB requests
(Section 8.3.1).
"""

from __future__ import annotations

from typing import Dict

from ..core.amcast import AtomicMulticast
from ..core.config import MultiRingConfig
from ..multiring.process import MultiRingProcess
from ..paxos.messages import ProposalValue
from ..sim.disk import StorageMode
from ..sim.topology import single_datacenter
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = ["run_fig3_point", "FIG3_VALUE_SIZES", "FIG3_STORAGE_MODES"]

#: Request sizes of the x-axis (bytes).
FIG3_VALUE_SIZES = (512, 2048, 8192, 32768)

#: The five storage modes of the figure.
FIG3_STORAGE_MODES = (
    StorageMode.IN_MEMORY,
    StorageMode.ASYNC_SSD,
    StorageMode.ASYNC_HDD,
    StorageMode.SYNC_SSD,
    StorageMode.SYNC_HDD,
)


class _SelfProposingLearner(MultiRingProcess):
    """A ring member that generates its own load (the paper's proposer threads).

    Each process keeps ``threads`` proposals outstanding: a new value is
    proposed as soon as one of its own values is delivered, which is how the
    Java prototype's proposer threads behave.
    """

    def __init__(self, env, name, ring_id: int, value_size: int, threads: int = 10) -> None:
        super().__init__(env, name)
        self._ring_id = ring_id
        self._value_size = value_size
        self._threads = threads
        self._outstanding: Dict[int, float] = {}
        # The payload is opaque (its size travels in ``size_bytes``), so every
        # proposal of this process carries the same tuple.
        self._payload = ("dummy", name)
        # Instruments are resolved once; registry lookups by name were a
        # measurable slice of the per-delivery cost (reset_all() keeps the
        # instrument objects, so cached references stay valid).  Every value
        # in a run has the same size, so only bytes are tracked and the
        # operation rate is derived as bytes/size.
        self._delivered_bytes = env.metrics.throughput("fig3.delivered_bytes")
        self._latency = env.metrics.latency("fig3.latency")

    def on_start(self) -> None:
        super().on_start()
        for _ in range(self._threads):
            self._propose_next()

    def _propose_next(self) -> None:
        if not self.alive:
            return
        value = self.multicast(self._ring_id, payload=self._payload, size_bytes=self._value_size)
        self._outstanding[value.proposal_id] = value.created_at

    def on_deliver(self, group_id: int, instance: int, value: ProposalValue) -> None:
        self._delivered_bytes.record(value.size_bytes)
        if value.proposer == self.name and value.proposal_id in self._outstanding:
            latency = self.now - self._outstanding.pop(value.proposal_id)
            self._latency.record(latency)
            self._propose_next()


def run_fig3_point(
    value_size: int,
    storage_mode: StorageMode,
    warmup: float = 1.0,
    duration: float = 8.0,
    threads_per_proposer: int = 10,
    seed: int = 42,
    batching_enabled: bool = False,
    batch_max_bytes: int = 32 * 1024,
    batch_max_delay: float = 0.0005,
) -> ExperimentResult:
    """Run one (value size, storage mode) point of Figure 3.

    The figure's baseline runs with batching off (every value gets its own
    consensus instance).  ``batching_enabled`` switches on coordinator value
    batching (size-or-timeout assembly, Sections 7.2/7.3) — the throughput
    configuration.
    """
    config = MultiRingConfig(
        storage_mode=storage_mode,
        batching_enabled=batching_enabled,
        batch_max_bytes=batch_max_bytes,
        batch_max_delay=batch_max_delay,
        rate_interval=None,      # single ring: no merge partner to level against
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(topology=single_datacenter(), config=config, seed=seed)
    processes = [
        _SelfProposingLearner(system.env, f"p{i}", ring_id=0, value_size=value_size,
                              threads=threads_per_proposer)
        for i in range(3)
    ]
    system.create_ring(0, [(p.name, "pal") for p in processes])

    harness = Measurement(
        system,
        MeasurementWindow(warmup=warmup, duration=duration),
        throughput_metrics=["fig3.delivered_bytes"],
        latency_metrics=["fig3.latency"],
    )
    # The coordinator's CPU window starts with the measurement window.
    coordinator = system.env.actor(system.ring(0).coordinator)
    harness.at(warmup, coordinator.cpu.reset_window)
    harness.run_to_end(harness.window.end)
    results = harness.results

    # Deliveries happen at three learners; each value is counted once per
    # learner, so divide by the learner count for per-value rates.  All
    # values share one size, so the operation rate is the byte rate / size.
    learners = 3
    byte_rate = results["fig3.delivered_bytes.rate"]
    throughput_mbps = byte_rate * 8.0 / 1e6 / learners
    ops_per_second = byte_rate / value_size / learners

    return ExperimentResult(
        name="fig3",
        params={
            "value_size": value_size,
            "storage": storage_mode.value,
            "batching": batching_enabled,
        },
        metrics={
            "throughput_mbps": throughput_mbps,
            "ops_per_s": ops_per_second,
            "latency_mean_ms": results["fig3.latency.mean_ms"],
            "latency_p95_ms": results["fig3.latency.p95_ms"],
            "coordinator_cpu_pct": coordinator.cpu.utilization_percent(),
            # Kernel-side cost of the run: batching packs many values into one
            # consensus instance, so the events-per-ordered-command ratio is
            # the quantity the kernel benchmark tracks.
            "events_processed": float(system.env.simulator.processed_events),
        },
        series={"latency_cdf": results["fig3.latency.cdf"]},
    )

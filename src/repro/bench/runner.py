"""Experiment runner utilities shared by every figure's benchmark.

The paper runs each experiment "for a duration of at least 100 seconds"
(Section 8.2) and reports steady-state throughput, latency distributions and,
for the recovery experiment, a per-second timeline.  The helpers here
standardise that measurement discipline for the simulated reproduction:

* :class:`Measurement` is the one measurement script: a deployment run
  through a warm-up window, its instruments reset, the measurement window
  run and the standard metrics gathered — all as phase callbacks of a
  :class:`~repro.sim.parallel.ShardHarness`, so the same script runs
  in-process (:meth:`~repro.sim.parallel.ShardHarness.run_to_end`) and as
  one shard of :func:`~repro.sim.parallel.run_sharded`;
* :class:`ExperimentResult` is the uniform result record every figure module
  returns, with the parameters, the scalar metrics and any per-time or
  per-point series.

The figure modules accept a ``scale`` parameter so the pytest benchmarks can
run shortened versions of the experiments (the paper's 100-second runs are
impractical inside a unit-test budget) while keeping the full-length defaults
available for reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.amcast import AtomicMulticast
from ..multiring.merge import RingSegmentBuffer
from ..paxos.messages import SKIP
from ..sim.parallel import ShardHarness

__all__ = [
    "ExperimentResult",
    "Measurement",
    "MeasurementWindow",
    "schedule_crashes",
    "stable_payload_key",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment point (one bar / one line point of a figure)."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)


@dataclass
class MeasurementWindow:
    """The warm-up/measurement split of one run."""

    warmup: float = 2.0
    duration: float = 10.0

    @property
    def end(self) -> float:
        """Simulation time at which the measurement stops."""
        return self.warmup + self.duration


def stable_payload_key(payload: Any) -> Any:
    """A payload identity stable across engine configurations.

    ``Command.command_id`` is drawn from a process-global counter whose value
    depends on how shards interleave in one process, so raw ``repr`` strings
    are not comparable between a ``workers=1`` and a ``workers=k`` run.  The
    semantic identity — who issued what operation with which arguments at
    what time — is.
    """
    from ..core.client import Command
    from ..core.packing import PackedValues, iter_payloads

    if isinstance(payload, Command):
        return (payload.op, payload.args, payload.group_id, payload.client,
                payload.created_at)
    if payload is SKIP:
        return "<SKIP>"
    if isinstance(payload, PackedValues):
        # Shared recursive unpacker: the identity of a packed instance is
        # the ordered identities of its leaf payloads.
        return tuple(stable_payload_key(leaf) for leaf in iter_payloads(payload))
    return repr(payload)


def schedule_crashes(system: AtomicMulticast, schedule: Any) -> None:
    """Install a fixed ``(at, process, down_for)`` crash plan inside a shard.

    Only names that exist in this shard are touched.  The shared learner is
    mirrored into every shard under one name, so a single schedule entry
    crashes the whole logical process across shards at the same simulated
    instant — deterministically, whatever the worker count.  The crashed
    mirror's segment buffer marks its rings down (they vanish from the
    barrier cuts until restart), and the restarted incarnation's gap repair
    re-emits the decided prefix for the parent-side cursor to dedup.
    """
    sim = system.env.simulator
    for at, name, down_for in schedule or ():
        if not system.env.has_actor(name):
            continue
        sim.call_later(float(at), system.crash_process, name)
        sim.call_later(float(at) + float(down_for), system.restart_process, name)


class Measurement(ShardHarness):
    """A deployment measured through a warm-up and a measurement window.

    The warm-up reset and the metric collection are phase callbacks
    (:meth:`~repro.sim.parallel.ShardHarness.at`) at ``window.warmup`` and
    ``window.end``; a runner adds its own (a CPU-window reset, a crash) with
    further :meth:`at` calls.  ``run_to_end(window.end)`` runs the script in
    this process; :func:`~repro.sim.parallel.run_sharded` runs the same
    script window by window, and phases fire exactly where a
    ``run(until=...)`` call would have returned, so both measure
    bit-identical runs.  After the run, :attr:`results` holds the metric
    dictionary (see :meth:`collect_window_metrics`).

    A sharded figure builder may additionally make the harness a
    streaming-merge producer (:meth:`shard_options`): every barrier then
    ships ``(shard time, segments cut since the last barrier)`` to the
    parent, where the segments are incarnation-tagged
    :class:`~repro.multiring.merge.RingSegment` values — crash/restart of
    the in-shard learner bumps the incarnation and the parent-side cursor
    dedups the re-emitted stream prefix.  Rings whose learner is down are
    omitted from the cut (uncovered), so the parent's joint watermark stalls
    honestly instead of over-promising freshness.

    ``extra`` lets a builder attach additional picklable results (delivery
    digests for the differential tests, swarm accounting, ...): each entry is
    called *after* the run and its dictionary joins ``finalize()``'s.
    """

    def __init__(
        self,
        system: AtomicMulticast,
        window: MeasurementWindow,
        throughput_metrics: Sequence[str] = (),
        latency_metrics: Sequence[str] = (),
        slo_classes: Sequence[str] = (),
    ) -> None:
        super().__init__(system.env)
        self.system = system
        self.window = window
        self.throughput_metrics = list(throughput_metrics)
        self.latency_metrics = list(latency_metrics)
        self.slo_classes = list(slo_classes)
        self.results: Dict[str, Any] = {}
        self.extra: List[Callable[[], Dict[str, Any]]] = []
        self._measure_start = 0.0
        self.at(window.warmup, self._reset_instruments)
        self.at(window.end, self._collect)

    def start(self) -> None:
        self.system.start()

    def _reset_instruments(self) -> None:
        self.env.metrics.reset_all()
        self._measure_start = self.env.now

    def _collect(self) -> None:
        self.results = self.collect_window_metrics(self._measure_start, self.env.now)

    def collect_window_metrics(self, start: float, end: float) -> Dict[str, Any]:
        """The standard metric dictionary over the window ``[start, end]``.

        For every throughput metric the average rate and the total over the
        window (``<name>.rate`` / ``.total``); for every latency metric the
        mean and percentiles in milliseconds, the count and a 50-point CDF;
        for every SLO class its percentile/violation accounting.
        """
        registry = self.env.metrics
        results: Dict[str, Any] = {"window": (start, end)}
        for name in self.throughput_metrics:
            # One pass over the samples; the rate is ThroughputTracker.rate's
            # arithmetic on the same total.
            total = registry.throughput(name).total_between(start, end)
            results[f"{name}.rate"] = total / (end - start) if end > start else 0.0
            results[f"{name}.total"] = total
        for name in self.latency_metrics:
            recorder = registry.latency(name)
            p50, p95, p99 = recorder.percentiles(50, 95, 99)
            results[f"{name}.mean_ms"] = recorder.mean() * 1e3
            results[f"{name}.p50_ms"] = p50 * 1e3
            results[f"{name}.p95_ms"] = p95 * 1e3
            results[f"{name}.p99_ms"] = p99 * 1e3
            results[f"{name}.count"] = recorder.count
            results[f"{name}.cdf"] = recorder.cdf(points=50)
        # Per-class SLO accounting recorded by a client swarm (see
        # repro.sim.metrics.SloTracker for the instrument names).
        for cls in self.slo_classes:
            p50, p99 = registry.latency(f"slo.{cls}.latency").percentiles(50, 99)
            requests = registry.counter(f"slo.{cls}.requests").value
            violations = registry.counter(f"slo.{cls}.violations").value
            results[f"slo.{cls}.p50_ms"] = p50 * 1e3
            results[f"slo.{cls}.p99_ms"] = p99 * 1e3
            results[f"slo.{cls}.requests"] = requests
            results[f"slo.{cls}.violations"] = violations
            results[f"slo.{cls}.violation_fraction"] = (
                violations / requests if requests else 0.0
            )
        return results

    def shard_options(self, payload: Dict[str, Any], replicas: Sequence[Any]) -> "Measurement":
        """Apply a figure payload's optional parts to this deployment.

        ``crash_schedule`` installs a fixed crash plan
        (:func:`schedule_crashes`); ``record_deliveries`` traces ``replicas``'
        deliveries into ``finalize()``'s ``deliveries`` entry (per learner,
        :func:`stable_payload_key` identities); ``stream_segments`` taps
        their per-ring decision streams (skips included) into one segment
        buffer shipped at every barrier.
        """
        schedule_crashes(self.system, payload.get("crash_schedule"))
        if payload.get("record_deliveries"):
            from ..chaos.trace import TraceRecorder

            recorder = TraceRecorder()
            for replica in replicas:
                recorder.attach(replica)
            self.extra.append(lambda: {"deliveries": {
                name: [
                    (record.group, record.instance, stable_payload_key(record.payload))
                    for record in trace.records
                ]
                for name, trace in recorder.traces.items()
            }})
        if payload.get("stream_segments"):
            buffer = RingSegmentBuffer()
            for replica in replicas:
                replica.record_ring_segments(into=buffer)
            self.stream_segments(buffer)
        return self

    def finalize(self) -> Dict[str, Any]:
        payload = dict(self.results)
        payload["events"] = self.env.simulator.processed_events
        for extra in self.extra:
            payload.update(extra())
        return payload

"""Experiment runner utilities shared by every figure's benchmark.

The paper runs each experiment "for a duration of at least 100 seconds"
(Section 8.2) and reports steady-state throughput, latency distributions and,
for the recovery experiment, a per-second timeline.  The helpers here
standardise that measurement discipline for the simulated reproduction:

* :func:`measure` runs a deployment through a warm-up window, resets the
  instruments, runs the measurement window and gathers the standard metrics;
* :class:`ExperimentResult` is the uniform result record every figure module
  returns, with the parameters, the scalar metrics and any per-time or
  per-point series;
The figure modules accept a ``scale`` parameter so the pytest benchmarks can
run shortened versions of the experiments (the paper's 100-second runs are
impractical inside a unit-test budget) while keeping the full-length defaults
available for reproduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.amcast import AtomicMulticast
from ..sim.metrics import LatencyRecorder, ThroughputTracker
from ..sim.parallel import ShardHarness

__all__ = [
    "ExperimentResult",
    "collect_window_metrics",
    "measure",
    "MeasurementWindow",
    "ShardedMeasurement",
]


@dataclass
class ExperimentResult:
    """Outcome of one experiment point (one bar / one line point of a figure)."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def metric(self, key: str, default: float = 0.0) -> float:
        """A scalar metric with a default."""
        return self.metrics.get(key, default)

    def describe(self) -> str:
        """One-line human readable summary."""
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        metrics = ", ".join(f"{k}={v:.3g}" for k, v in self.metrics.items())
        return f"{self.name} [{params}] {metrics}"


@dataclass
class MeasurementWindow:
    """The warm-up/measurement split of one run."""

    warmup: float = 2.0
    duration: float = 10.0

    @property
    def end(self) -> float:
        """Simulation time at which the measurement stops."""
        return self.warmup + self.duration


def measure(
    system: AtomicMulticast,
    window: MeasurementWindow,
    throughput_metrics: Sequence[str] = (),
    latency_metrics: Sequence[str] = (),
    timeline_metrics: Sequence[str] = (),
    slo_classes: Sequence[str] = (),
) -> Dict[str, Any]:
    """Run ``system`` through a warm-up and a measurement window.

    Returns a dictionary with, for every requested throughput metric, the
    average rate over the window (``<name>.rate``); for every latency metric
    the mean/percentiles in milliseconds; for every timeline metric the
    per-second series relative to the start of the measurement window; and
    for every SLO class its percentile/violation accounting.
    """
    system.start()
    system.run(until=window.warmup)
    system.env.metrics.reset_all()
    start = system.env.now
    system.run(until=window.end)
    end = system.env.now
    return collect_window_metrics(
        system,
        start,
        end,
        throughput_metrics,
        latency_metrics,
        timeline_metrics,
        slo_classes,
    )


def collect_window_metrics(
    system: AtomicMulticast,
    start: float,
    end: float,
    throughput_metrics: Sequence[str] = (),
    latency_metrics: Sequence[str] = (),
    timeline_metrics: Sequence[str] = (),
    slo_classes: Sequence[str] = (),
) -> Dict[str, Any]:
    """Gather the standard metric dictionary over an already-run window."""
    results: Dict[str, Any] = {"window": (start, end)}
    for name in throughput_metrics:
        tracker = system.env.metrics.throughput(name)
        results[f"{name}.rate"] = tracker.rate(start, end)
        results[f"{name}.total"] = tracker.total_between(start, end)
    for name in latency_metrics:
        recorder = system.env.metrics.latency(name)
        results[f"{name}.mean_ms"] = recorder.mean() * 1e3
        results[f"{name}.p50_ms"] = recorder.percentile(50) * 1e3
        results[f"{name}.p95_ms"] = recorder.percentile(95) * 1e3
        results[f"{name}.p99_ms"] = recorder.percentile(99) * 1e3
        results[f"{name}.count"] = recorder.count
        results[f"{name}.cdf"] = recorder.cdf(points=50)
    for name in timeline_metrics:
        tracker = system.env.metrics.throughput(name)
        results[f"{name}.timeline"] = [
            (t - start, rate) for t, rate in tracker.timeline(start, end)
        ]
    # Per-class SLO accounting recorded by a client swarm (see
    # repro.sim.metrics.SloTracker for the instrument names).
    registry = system.env.metrics
    for cls in slo_classes:
        recorder = registry.latency(f"slo.{cls}.latency")
        requests = registry.counter(f"slo.{cls}.requests").value
        violations = registry.counter(f"slo.{cls}.violations").value
        results[f"slo.{cls}.p50_ms"] = recorder.percentile(50) * 1e3
        results[f"slo.{cls}.p99_ms"] = recorder.percentile(99) * 1e3
        results[f"slo.{cls}.requests"] = requests
        results[f"slo.{cls}.violations"] = violations
        results[f"slo.{cls}.violation_fraction"] = (
            violations / requests if requests else 0.0
        )
    return results


class ShardedMeasurement(ShardHarness):
    """One shard of a sharded experiment, measured like :func:`measure`.

    Used by the parallel figure runners (:mod:`repro.bench.parallel`): the
    shard builder constructs its sub-deployment inside the worker process and
    wraps it in this harness, and the engine runs it with
    ``until=window.end``.  The warm-up reset and the metric collection are
    phase callbacks (:meth:`~repro.sim.parallel.ShardHarness.at`): they fire
    when a window reaches the warm-up boundary and the measurement end —
    exactly where :func:`measure`'s ``run(until=...)`` calls return — so one
    window and many streaming barrier windows measure bit-identical runs.

    A builder that installs a segment buffer via :meth:`stream_segments`
    turns the harness into a streaming-merge producer: every barrier ships
    ``(shard time, segments cut since the last barrier)`` to the parent,
    where the segments are incarnation-tagged
    :class:`~repro.multiring.merge.RingSegment` values — crash/restart of
    the in-shard learner bumps the incarnation and the parent-side cursor
    dedups the re-emitted stream prefix.  Rings whose learner is down are
    omitted from the cut (uncovered), so the parent's joint watermark stalls
    honestly instead of over-promising freshness.

    ``extra`` lets a builder attach additional picklable results (delivery
    digests for the differential tests, swarm accounting, ...): each entry is
    called inside the worker *after* the run and its dictionary joins
    ``finalize()``'s.
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
        self.results = collect_window_metrics(
            self.system,
            self._measure_start,
            self.env.now,
            throughput_metrics=self.throughput_metrics,
            latency_metrics=self.latency_metrics,
            slo_classes=self.slo_classes,
        )

    def finalize(self) -> Dict[str, Any]:
        payload = dict(self.results)
        payload["events"] = self.env.simulator.processed_events
        for extra in self.extra:
            payload.update(extra())
        return payload

"""Measurement instruments for experiments.

The benchmark harness reproduces the paper's plots from four instrument
types:

* :class:`Counter` — monotonically increasing counts (operations, bytes).
* :class:`LatencyRecorder` — per-request latency samples with mean,
  percentiles and CDFs (Figures 3, 5, 6, 7).
* :class:`ThroughputTracker` — operations (or bits) per second over a
  measurement window or per fixed-size time bucket (Figure 8's timeline).
* :class:`MetricRegistry` — a namespace of the above keyed by string, owned
  by the :class:`~repro.sim.actor.Environment`.

Large workloads (the client swarm simulating up to 10⁶ users) would make a
raw sample list the memory ceiling, so :class:`LatencyRecorder` supports a
streaming *sketch* mode: pass ``sketch=N`` and the recorder keeps exact raw
samples until ``N`` of them have been seen, then folds everything into a
log-spaced fixed-bucket histogram (growth factor ≈ 1.02, i.e. ≤ 1 % relative
quantile error) and records into buckets from then on.  Below the threshold
behavior is bit-identical to the exact recorder.

:class:`SloTracker` layers per-class service-level accounting on top:
``slo.<class>.latency`` recorders plus ``slo.<class>.requests`` /
``slo.<class>.violations`` counters for each traffic class.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import and_, le, lt
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "LatencyRecorder",
    "SloTracker",
    "ThroughputTracker",
    "MetricRegistry",
]

# Geometric bucket growth for the sketch mode.  Quantiles are reported at
# the geometric midpoint of their bucket, so the worst-case relative error
# is sqrt(GROWTH) - 1 ≈ 0.995 % < 1 %.
_SKETCH_GROWTH = 1.02
_LOG_GROWTH = math.log(_SKETCH_GROWTH)
# Samples below this magnitude (one nanosecond) share the underflow bucket.
_SKETCH_FLOOR = 1e-9

# What ``ThroughputTracker`` holds as its last sample's units when it has none:
# no ``record`` argument is this object, so the next record starts a sample.
_NO_SAMPLE = object()


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase")
        self._value += amount

    def reset(self) -> None:
        """Reset the counter to zero (start of a measurement window)."""
        self._value = 0.0


class LatencyRecorder:
    """Collects latency samples in seconds and summarises them.

    ``sketch`` is a sample-count threshold: ``None`` (default) keeps raw
    samples forever; an integer ``N`` switches the recorder to a log-spaced
    bucket histogram once more than ``N`` samples have been recorded.  Exact
    and sketched recorders answer the same queries; sketched quantiles carry
    ≤ 1 % relative error while min/max/mean/count stay exact.
    """

    def __init__(self, name: str, sketch: Optional[int] = None) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sketch_threshold = sketch
        self._buckets: Optional[Dict[int, int]] = None
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------- recording
    def record(self, latency_seconds: float) -> None:
        """Record one sample."""
        if latency_seconds < 0:
            raise ValueError("latency cannot be negative")
        self._count += 1
        self._total += latency_seconds
        if latency_seconds < self._min:
            self._min = latency_seconds
        if latency_seconds > self._max:
            self._max = latency_seconds
        if self._buckets is not None:
            self._buckets[self._bucket_index(latency_seconds)] += 1
            return
        self._samples.append(latency_seconds)
        if (
            self._sketch_threshold is not None
            and len(self._samples) > self._sketch_threshold
        ):
            self._fold_into_sketch()

    @staticmethod
    def _bucket_index(value: float) -> int:
        if value < _SKETCH_FLOOR:
            return -(10**9)  # shared underflow bucket
        return int(math.floor(math.log(value) / _LOG_GROWTH))

    @staticmethod
    def _bucket_value(index: int) -> float:
        if index == -(10**9):
            return 0.0
        # Geometric midpoint of [g^i, g^(i+1)).
        return _SKETCH_GROWTH ** (index + 0.5)

    def _fold_into_sketch(self) -> None:
        buckets: Dict[int, int] = defaultdict(int)
        for s in self._samples:
            buckets[self._bucket_index(s)] += 1
        self._buckets = buckets
        self._samples = []

    # --------------------------------------------------------------- queries
    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    def _clamped(self, value: float) -> float:
        return min(self._max, max(self._min, value))

    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty) — exact in both modes."""
        if self._count == 0:
            return 0.0
        return self._total / self._count

    def percentile(self, pct: float) -> float:
        """Latency at percentile ``pct`` (0-100), nearest-rank method."""
        return self.percentiles(pct)[0]

    def percentiles(self, *pcts: float) -> List[float]:
        """Latencies at each percentile of ``pcts``, sorting the samples once."""
        if self._count == 0:
            return [0.0] * len(pcts)
        if not all(0 <= pct <= 100 for pct in pcts):
            raise ValueError("percentile must be within [0, 100]")
        ranks = [
            max(0, min(self._count - 1, math.ceil(pct / 100.0 * self._count) - 1))
            for pct in pcts
        ]
        if self._buckets is None:
            ordered = sorted(self._samples)
            return [ordered[rank] for rank in ranks]
        return [self._sketch_percentile(pct, rank) for pct, rank in zip(pcts, ranks)]

    def _sketch_percentile(self, pct: float, rank: int) -> float:
        if pct == 0:
            return self._min
        if pct == 100:
            return self._max
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen > rank:
                return self._clamped(self._bucket_value(idx))
        return self._max

    def cdf(self, points: int = 100) -> List[Tuple[float, float]]:
        """Return ``points`` (latency, cumulative fraction) pairs for plotting."""
        if self._count == 0:
            return []
        n = self._count
        if self._buckets is None:
            ordered = sorted(self._samples)
            result = []
            for i in range(1, points + 1):
                idx = max(0, min(n - 1, round(i / points * n) - 1))
                result.append((ordered[idx], (idx + 1) / n))
            return result
        # Sketch mode: walk the cumulative histogram once, answering the same
        # nearest-rank positions the exact path uses.
        edges: List[Tuple[int, int]] = []  # (cumulative count, bucket index)
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            edges.append((seen, idx))
        result = []
        for i in range(1, points + 1):
            rank = max(0, min(n - 1, round(i / points * n) - 1))
            pos = bisect.bisect_right([c for c, _ in edges], rank)
            pos = min(pos, len(edges) - 1)
            result.append(
                (self._clamped(self._bucket_value(edges[pos][1])), (rank + 1) / n)
            )
        return result

    def mean_ms(self) -> float:
        """Mean latency in milliseconds."""
        return self.mean() * 1_000.0

    def reset(self) -> None:
        """Drop every recorded sample (the sketch threshold is kept)."""
        self._samples.clear()
        self._buckets = None
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf


class SloTracker:
    """Per-class service-level-objective accounting.

    ``targets`` maps a traffic class (``"gold"``, ``"default"``, …) to its
    latency objective in seconds.  Every :meth:`record` call feeds the
    class's ``slo.<class>.latency`` recorder and bumps
    ``slo.<class>.requests``; samples over the objective additionally bump
    ``slo.<class>.violations``.  Classes without a target are tracked with no
    violation accounting.
    """

    def __init__(
        self,
        registry: "MetricRegistry",
        targets: Dict[str, float],
        prefix: str = "slo",
        sketch: Optional[int] = None,
    ) -> None:
        self._registry = registry
        self._targets = dict(targets)
        self._prefix = prefix
        self._sketch = sketch
        #: class -> (latency recorder, requests, violations, target), resolved
        #: once per class (``reset_all()`` keeps instrument objects)
        self._classes: Dict[str, Tuple[LatencyRecorder, Counter, Counter, Optional[float]]] = {}
        for cls in self._targets:
            self._resolve(cls)

    def _resolve(self, cls: str) -> Tuple["LatencyRecorder", Counter, Counter, Optional[float]]:
        prefix = f"{self._prefix}.{cls}"
        entry = self._classes[cls] = (
            self._registry.latency(f"{prefix}.latency", sketch=self._sketch),
            self._registry.counter(f"{prefix}.requests"),
            self._registry.counter(f"{prefix}.violations"),
            self._targets.get(cls),
        )
        return entry

    def record(self, cls: str, latency_seconds: float) -> None:
        """Record one completed request of class ``cls``."""
        recorder, requests, violations, target = self._classes.get(cls) or self._resolve(cls)
        recorder.record(latency_seconds)
        requests.increment()
        if target is not None and latency_seconds > target:
            violations.increment()


class ThroughputTracker:
    """Tracks completed units over time.

    ``record(units)`` is called when work completes; totals per fixed-size
    bucket provide the throughput timeline of Figure 8, and window totals
    provide the steady-state throughput of the other figures.

    Storage is one sample per simulated instant, not one per record: a record
    at the same clock reading as the last sample, passing the very object that
    sample holds, bumps the sample's repeat count (a packed instance delivers
    every value in one instant, and every call site passes a shared constant).
    Queries replay each sample ``count`` times in record order, so every sum
    is the one a flat list of records would give, bit for bit.
    """

    def __init__(self, name: str, clock: Callable[[], float], bucket_seconds: float = 1.0) -> None:
        self.name = name
        self._clock = clock
        self._bucket = bucket_seconds
        # Columns, not a tuple per record: every tuple would be one more
        # GC-tracked object.  A repeat count past 255 starts a new sample.
        self._times = array("d")
        self._units: List[float] = []
        self._counts = array("B")
        self._last_units: object = _NO_SAMPLE
        self._last_time = 0.0

    def record(self, units: float = 1.0) -> None:
        """Record completion of ``units`` units of work at the current time."""
        now = self._clock()
        if units is self._last_units and now == self._last_time:
            counts = self._counts
            count = counts[-1]
            if count != 255:
                counts[-1] = count + 1
                return
        self._times.append(now)
        self._units.append(units)
        self._counts.append(1)
        self._last_units = units
        self._last_time = now

    def total_between(self, start: float, end: float) -> float:
        """Units recorded in the half-open interval ``[start, end)``."""
        times = self._times
        inside = list(map(and_, map(le, repeat(start), times), map(lt, times, repeat(end))))
        return sum(_replayed(compress(self._units, inside), compress(self._counts, inside)))

    def rate(self, start: float, end: float) -> float:
        """Average rate (units/second) over ``[start, end)``."""
        if end <= start:
            return 0.0
        return self.total_between(start, end) / (end - start)

    def timeline(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Per-bucket rates between ``start`` and ``end``.

        Returns a list of ``(bucket_start_time, units_per_second)`` covering
        the interval, including empty buckets — exactly the series plotted in
        Figure 8.
        """
        if end <= start:
            return []
        buckets: Dict[int, float] = defaultdict(float)
        for t, u, k in zip(self._times, self._units, self._counts):
            if start <= t < end:
                bucket = int((t - start) // self._bucket)
                for _ in range(k):
                    buckets[bucket] += u
        n_buckets = int(math.ceil((end - start) / self._bucket))
        return [
            (start + i * self._bucket, buckets.get(i, 0.0) / self._bucket)
            for i in range(n_buckets)
        ]

    def reset(self) -> None:
        """Drop all recorded events."""
        del self._times[:]
        self._units.clear()
        del self._counts[:]
        self._last_units = _NO_SAMPLE


def _replayed(units: Iterable[float], counts: Iterable[int]) -> Iterator[float]:
    """Each sample's units, ``count`` times over, in record order."""
    return chain.from_iterable(map(repeat, units, counts))


class MetricRegistry:
    """Named registry of counters, latency recorders and throughput trackers."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._throughputs: Dict[str, ThroughputTracker] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def latency(self, name: str, sketch: Optional[int] = None) -> LatencyRecorder:
        """Get or create the latency recorder ``name``.

        ``sketch`` only applies on first creation.
        """
        if name not in self._latencies:
            self._latencies[name] = LatencyRecorder(name, sketch=sketch)
        return self._latencies[name]

    def throughput(self, name: str, bucket_seconds: float = 1.0) -> ThroughputTracker:
        """Get or create the throughput tracker ``name``."""
        if name not in self._throughputs:
            self._throughputs[name] = ThroughputTracker(name, self._clock, bucket_seconds)
        return self._throughputs[name]

    def reset_all(self) -> None:
        """Reset every registered instrument (start of measurement window)."""
        for c in self._counters.values():
            c.reset()
        for l in self._latencies.values():
            l.reset()
        for t in self._throughputs.values():
            t.reset()


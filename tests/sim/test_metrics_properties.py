"""Property-based tests for the latency-recorder statistics.

The swarm engine leans on :class:`LatencyRecorder` for every latency claim a
figure makes — and above the sketch threshold it swaps the exact sample list
for a log-bucket histogram.  Hypothesis pins the invariants on arbitrary
sample sets:

* ``percentile`` is monotone in the percentile, bounded by min/max, and
  exact at the endpoints (p0 = min, p100 = max) in *both* modes;
* ``cdf`` is monotone with a final cumulative fraction of 1.0;
* the sketch preserves count/min/max/mean exactly and p50/p95/p99 to within
  the design bound of ~1% relative error (geometric bucket midpoints at
  growth 1.02);
* the columnar :class:`ThroughputTracker` answers every query with the same
  value *and type* as the list-of-tuples reference of
  ``tests/reference/metrics.py`` (one ``(time, units)`` tuple per record,
  summed in record order) — on hypothesis' streams, and on the run-length
  cases hypothesis rarely draws: long runs of one units object at one
  instant, sums that depend on their order, a reset inside a run, and equal
  units of different types.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.metrics import LatencyRecorder, ThroughputTracker
from tests.reference.metrics import TupleTracker

def _total(tracker: ThroughputTracker) -> float:
    """Every unit the tracker recorded, summed in record order."""
    return tracker.total_between(-math.inf, math.inf)


#: Positive latencies well clear of the sketch's 1e-9 underflow bucket.
samples_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)

#: Geometric-midpoint representatives at growth 1.02 are at most
#: sqrt(1.02) - 1 ≈ 0.995% off any sample in their bucket.
SKETCH_RTOL = 0.0101


def _recorder(samples, sketch=None):
    recorder = LatencyRecorder("prop", sketch=sketch)
    for value in samples:
        recorder.record(value)
    return recorder


class TestExactPercentiles:
    @given(samples_strategy, st.floats(0, 100), st.floats(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_percentile_is_monotone_and_bounded(self, samples, p1, p2):
        recorder = _recorder(samples)
        lo, hi = sorted((p1, p2))
        assert recorder.percentile(lo) <= recorder.percentile(hi)
        assert min(samples) <= recorder.percentile(lo) <= max(samples)

    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_percentile_endpoints_are_min_and_max(self, samples):
        recorder = _recorder(samples)
        assert recorder.percentile(0) == min(samples)
        assert recorder.percentile(100) == max(samples)

    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_monotone_and_complete(self, samples):
        cdf = _recorder(samples).cdf(points=20)
        fractions = [fraction for _, fraction in cdf]
        values = [value for value, _ in cdf]
        assert fractions == sorted(fractions)
        assert values == sorted(values)
        assert fractions[-1] == 1.0



class TestSketchAgreement:
    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sketch_preserves_exact_scalars(self, samples):
        exact = _recorder(samples)
        sketched = _recorder(samples, sketch=0)  # fold immediately
        assert sketched._buckets is not None
        assert sketched.count == exact.count
        assert sketched.mean() == exact.mean()
        assert sketched.percentile(0) == min(samples)
        assert sketched.percentile(100) == max(samples)

    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sketch_percentiles_within_one_percent(self, samples):
        exact = _recorder(samples)
        sketched = _recorder(samples, sketch=0)
        for pct in (50.0, 95.0, 99.0):
            reference = exact.percentile(pct)
            approximate = sketched.percentile(pct)
            assert abs(approximate - reference) <= SKETCH_RTOL * reference

    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sketch_percentile_stays_monotone_and_bounded(self, samples):
        sketched = _recorder(samples, sketch=0)
        values = [sketched.percentile(p) for p in (0, 10, 50, 90, 95, 99, 100)]
        assert values == sorted(values)
        assert all(min(samples) <= v <= max(samples) for v in values)

    @given(samples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_threshold_crossing_folds_exactly_once(self, samples):
        """Recording past the threshold must not lose or duplicate counts."""
        threshold = max(1, len(samples) // 2)
        recorder = _recorder(samples, sketch=threshold)
        assert recorder.count == len(samples)
        assert (recorder._buckets is not None) == (len(samples) > threshold)
        cdf = recorder.cdf(points=10)
        assert cdf[-1][1] == 1.0


#: ``(time step, units)`` records; units mix ints and floats on purpose —
#: the tracker must hand back the operand types it was given.
record_stream = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.one_of(
            st.integers(min_value=0, max_value=1 << 40),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        ),
    ),
    max_size=120,
)
window_bound = st.floats(min_value=-1.0, max_value=30.0, allow_nan=False)


def _same(actual, expected):
    """Equal in value and in type, element-wise for the timeline's pairs."""
    assert actual == expected
    assert type(actual) is type(expected)
    if isinstance(expected, list):
        for got, want in zip(actual, expected):
            assert [type(x) for x in got] == [type(x) for x in want]


class TestColumnarThroughputTracker:
    @given(
        record_stream,
        window_bound,
        window_bound,
        st.sampled_from([0.05, 0.25, 1.0]),
        st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_list_of_tuples_reference(self, stream, a, b, bucket, reset_at):
        now = [0.0]
        tracker = ThroughputTracker("prop", lambda: now[0])
        tracker.BUCKET_SECONDS = bucket
        reference = TupleTracker(lambda: now[0], bucket)
        for index, (step, units) in enumerate(stream):
            if index == reset_at:
                tracker.reset()
                reference.reset()
                _same(_total(tracker), reference.total)
            now[0] += step
            tracker.record(units)
            reference.record(units)
        for start, end in ((a, b), (b, a), (min(a, b), max(a, b) + 1.0)):
            _same(_total(tracker), reference.total)
            _same(tracker.total_between(start, end), reference.total_between(start, end))
            _same(tracker.rate(start, end), reference.rate(start, end))
            _same(tracker.timeline(start, end), reference.timeline(start, end))
        tracker.reset()
        reference.reset()
        _same(_total(tracker), reference.total)
        _same(tracker.timeline(0.0, 1.0), reference.timeline(0.0, 1.0))


def _replay(records, bucket=0.25):
    """Feed ``(time, units)`` records — or ``"reset"`` — to both trackers."""
    now = [0.0]
    tracker = ThroughputTracker("case", lambda: now[0])
    tracker.BUCKET_SECONDS = bucket
    reference = TupleTracker(lambda: now[0], bucket)
    for record in records:
        if record == "reset":
            tracker.reset()
            reference.reset()
            continue
        now[0], units = record
        tracker.record(units)
        reference.record(units)
    return tracker, reference


def _answers_alike(tracker, reference, start=0.0, end=2.0):
    _same(_total(tracker), reference.total)
    _same(tracker.total_between(start, end), reference.total_between(start, end))
    _same(tracker.rate(start, end), reference.rate(start, end))
    _same(tracker.timeline(start, end), reference.timeline(start, end))


class TestRunLengthCases:
    def test_one_units_object_at_one_instant_is_one_sample(self):
        size = 2048
        tracker, reference = _replay([(0.5, size)] * 40 + [(0.75, size)] * 3)
        _answers_alike(tracker, reference)
        assert len(tracker._times) == 2

    def test_a_run_is_summed_in_record_order_not_pre_summed(self):
        big, one = 1e16, 1.0
        tracker, reference = _replay([(0.5, big), (0.5, one), (0.5, one)])
        _answers_alike(tracker, reference)
        assert _total(tracker) == 1e16  # 1e16 + 1.0 rounds back to 1e16, twice
        tracker, reference = _replay([(0.5, one), (0.5, one), (0.5, big)])
        _answers_alike(tracker, reference)
        assert _total(tracker) == 1.0000000000000002e16

    def test_a_run_longer_than_a_count_holds_starts_a_new_sample(self):
        tracker, reference = _replay([(0.5, 1.0)] * 600 + [(1.5, 1.0)] * 256)
        _answers_alike(tracker, reference)
        assert _total(tracker) == 856.0
        assert list(tracker._counts) == [255, 255, 90, 255, 1]

    def test_a_reset_ends_the_run(self):
        tracker, reference = _replay([(0.5, 1.0), (0.5, 1.0), "reset", (0.5, 1.0), (0.5, 1.0)])
        _answers_alike(tracker, reference)
        assert _total(tracker) == 2.0
        tracker, reference = _replay([(0.5, 3), "reset", (0.5, 3)])
        _answers_alike(tracker, reference)

    def test_equal_units_of_different_types_are_different_samples(self):
        tracker, reference = _replay([(0.5, 1), (0.5, 1.0), (0.5, 1), (0.5, True)])
        _answers_alike(tracker, reference)
        tracker, reference = _replay([(0.5, 1)] * 3)
        _same(_total(tracker), reference.total)  # an int run stays an int
        assert type(_total(tracker)) is int

    def test_equal_units_objects_that_are_not_the_same_object_are_kept_apart(self):
        first, second = float("0.1"), float("0.1")
        assert first is not second
        tracker, reference = _replay([(0.5, first), (0.5, second), (0.5, second)])
        _answers_alike(tracker, reference)
        assert list(tracker._counts) == [1, 2]

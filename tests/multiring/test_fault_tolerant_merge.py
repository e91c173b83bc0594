"""Fault tolerance of the streaming merge: restart dedup at the producer,
contiguity at the consumer, and watermark hygiene.

A crashed-and-restarted learner re-emits its ring's stream from instance 0.
The shard's :class:`RingSegmentBuffer` sees both emissions, so the dedup
lives there: a re-emitted instance that decided the payload the buffer
already shipped never reaches a cut, and one that decided a different value
is cut unchanged, for the consumer's cursor to reject as
:class:`MergeDivergenceError` naming the instance.  The buffer's crash
boundary drops the uncut tail (the restart re-emits it) and keeps down rings
out of cuts so consumers stall honestly.

The :class:`MergeCursor` is then a pure contiguous-stream round-robin: a
segment whose resume position does not continue its ring (lost, replayed) or
an entry out of place fails by name, and stale or duplicated barrier
watermarks are rejected loudly.
"""

import pytest

from repro.multiring.merge import (
    MergeCursor,
    MergeDivergenceError,
    RingSegment,
    RingSegmentBuffer,
    StaleWatermarkError,
    replay_streams,
)
from repro.paxos.messages import SKIP, ProposalValue
from tests.conftest import mutate


def value(payload, size=10):
    return ProposalValue(payload=payload, size_bytes=size)


def skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


def entries(ring, lo, hi):
    """Ordered (instance, value) pairs ``lo..hi`` inclusive for ``ring``."""
    return [(i, value(f"r{ring}i{i}")) for i in range(lo, hi + 1)]


def record(buffer, ring, stream):
    for instance, val in stream:
        buffer.append(ring, instance, val)


def shipped_then_restarted(shipped, reemitted):
    """Ring 0's buffer: cut ``shipped``, crash, restart, record ``reemitted``.

    Returns ``(first cut, cut after the restart)``.
    """
    buffer = RingSegmentBuffer()
    buffer.subscribe([0])
    record(buffer, 0, shipped)
    first = buffer.cut()[0]
    buffer.mark_down([0])
    buffer.mark_restart([0])
    record(buffer, 0, reemitted)
    return first, buffer.cut()[0]


def merge_cuts(ring_ids, cuts):
    """A cursor fed ``cuts`` (one ``{ring: segment}`` per barrier)."""
    cursor = MergeCursor(ring_ids)
    for barrier, segments in enumerate(cuts, start=1):
        cursor.feed_segments(segments, watermark=float(barrier), groups=sorted(segments))
    return cursor


class TestStaleWatermarkRejection:
    def test_duplicate_barrier_watermark_raises_naming_marks(self):
        cursor = MergeCursor([0, 1])
        cursor.feed_segments({0: entries(0, 0, 1), 1: entries(1, 0, 1)}, watermark=1.0)
        with pytest.raises(StaleWatermarkError) as excinfo:
            cursor.feed_segments({}, watermark=1.0)
        message = str(excinfo.value)
        assert "1.0" in message
        assert "ring marks" in message

    def test_regressed_barrier_watermark_raises(self):
        cursor = MergeCursor([0])
        cursor.feed_segments({}, watermark=2.0)
        with pytest.raises(StaleWatermarkError):
            cursor.feed_segments({}, watermark=1.5)

    def test_rejection_leaves_cursor_usable(self):
        cursor = MergeCursor([0])
        cursor.feed_segments({0: entries(0, 0, 0)}, watermark=1.0)
        with pytest.raises(StaleWatermarkError):
            cursor.feed_segments({}, watermark=1.0)
        out = cursor.feed_segments({0: entries(0, 1, 1)}, watermark=2.0)
        assert [(g, i) for g, i, _ in out] == [(0, 1)]
        assert cursor.watermark == 2.0
        assert cursor._last_barrier == 2.0

    def test_per_ring_watermark_still_rejects_backwards(self):
        cursor = MergeCursor([0])
        cursor.feed(0, (), watermark=3.0)
        with pytest.raises(ValueError, match="backwards"):
            cursor.feed(0, (), watermark=2.0)


class TestBufferRestartDedup:
    """The producer drops a restarted learner's equal re-emissions."""

    def test_equal_reemitted_prefix_never_reaches_a_cut(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([0, 1])
        record(buffer, 0, entries(0, 0, 4))
        record(buffer, 1, entries(1, 0, 4))
        first = buffer.cut()
        buffer.mark_down([0])
        buffer.mark_restart([0])
        # The restarted learner re-emits 0..6: only 5 and 6 are new.
        record(buffer, 0, entries(0, 0, 6))
        record(buffer, 1, entries(1, 5, 6))
        second = buffer.cut()
        assert (second[0].start, [i for i, _ in second[0].entries]) == (5, [5, 6])
        assert (second[1].start, [i for i, _ in second[1].entries]) == (5, [5, 6])
        merged = merge_cuts([0, 1], [first, second]).merged
        assert merged == replay_streams({0: entries(0, 0, 6), 1: entries(1, 0, 6)})

    def test_divergent_reemission_is_cut_and_the_cursor_names_the_instance(self):
        poisoned = entries(0, 0, 3)
        poisoned[1] = (1, value("not-what-was-decided"))
        first, second = shipped_then_restarted(entries(0, 0, 2), poisoned)
        # Forwarded unchanged, next to the one genuinely new instance.
        assert second.start == 3
        assert [(i, v.payload) for i, v in second.entries] == [
            (1, "not-what-was-decided"), (3, "r0i3"),
        ]
        with pytest.raises(MergeDivergenceError, match="ring 0 instance 1 "):
            merge_cuts([0], [{0: first}, {0: second}])

    def test_skip_reemission_dedups_like_any_value(self):
        stream = [(0, value("a")), (1, skip()), (2, value("b"))]
        first, second = shipped_then_restarted(stream, stream + [(3, skip())])
        assert (second.start, [i for i, _ in second.entries]) == (3, [3])
        cursor = merge_cuts([0], [{0: first}, {0: second}])
        assert [(g, i) for g, i, _ in cursor.merged] == [(0, 0), (0, 2)]

    def test_a_skip_reemitted_where_a_value_was_shipped_diverges(self):
        shipped = [(0, value("a")), (1, value("b"))]
        first, second = shipped_then_restarted(shipped, [(0, value("a")), (1, skip())])
        assert [(i, v.payload) for i, v in second.entries] == [(1, SKIP)]
        with pytest.raises(MergeDivergenceError, match="ring 0 instance 1 "):
            merge_cuts([0], [{0: first}, {0: second}])

    def test_reemission_before_the_prefix_is_complete_cuts_nothing(self):
        # Gap repair may re-deliver the prefix over several barriers: a cut
        # in the middle of it is empty and still resumes at the shipped count.
        _first, second = shipped_then_restarted(entries(0, 0, 5), entries(0, 0, 2))
        assert (second.start, second.entries) == (6, [])


class TestRingSegmentBufferCrashBoundary:
    def test_uncut_tail_at_crash_is_neither_lost_nor_leaked(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([7])
        record(buffer, 7, entries(7, 0, 2))
        first = buffer.cut()
        assert [i for i, _ in first[7].entries] == [0, 1, 2]
        # Recorded after the cut, then the producer crashes: the tail is not
        # shipped (leaked) while the ring is down, nor after the restart
        # until the learner re-emits it ...
        buffer.append(7, 3, value("r7i3"))
        buffer.mark_down([7])
        assert buffer.cut() == {}, "down ring must be uncovered, not empty"
        buffer.mark_restart([7])
        idle = buffer.cut()[7]
        assert (idle.start, idle.entries) == (3, [])
        # ... and then it is shipped once, where the shipped prefix ends
        # (not lost).
        record(buffer, 7, entries(7, 0, 3))
        segment = buffer.cut()[7]
        assert (segment.start, [i for i, _ in segment.entries]) == (3, [3])

    def test_restart_resumes_at_the_shipped_count(self):
        first, second = shipped_then_restarted(entries(7, 0, 2), entries(7, 0, 4))
        assert first.start == 0
        # The recreated learner re-emits from instance 0; only what was
        # never shipped is cut, resuming where the last covered cut ended.
        assert second.start == 3
        assert [i for i, _ in second.entries] == [3, 4]

    def test_cut_sequence_feeds_cursor_to_the_offline_anchor(self):
        """The regression: crash between cuts, then restart and re-emit.

        Shipping every cut through a cursor must reproduce exactly
        ``replay_streams`` over the whole stream — the pre-crash uncut tail
        neither leaks nor is lost.
        """
        buffer = RingSegmentBuffer()
        buffer.subscribe([0])
        cuts = []
        record(buffer, 0, entries(0, 0, 2))
        cuts.append(buffer.cut())
        buffer.append(0, 3, value("r0i3"))  # uncut at crash time
        buffer.mark_down([0])
        cuts.append(buffer.cut())  # barrier while down: uncovered
        buffer.mark_restart([0])
        record(buffer, 0, entries(0, 0, 5))  # re-emission, plus progress
        cuts.append(buffer.cut())
        assert cuts[1] == {}
        assert [i for i, _ in cuts[2][0].entries] == [3, 4, 5]
        assert merge_cuts([0], cuts).merged == replay_streams({0: entries(0, 0, 5)})

    def test_idle_known_ring_yields_empty_covered_segment(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([3, 4])
        buffer.append(3, 0, value("x"))
        cuts = buffer.cut()
        assert set(cuts) == {3, 4}
        assert cuts[4].entries == []


def _crash_history(cut_every):
    """Rings 0 and 1 through one buffer, cut every ``cut_every`` appends.

    Ring 0's learner crashes after instance 6 (instances 5, 6 uncut), and
    restarts to re-emit 0..11; ring 1 records 0..11 throughout.
    """
    buffer = RingSegmentBuffer()
    buffer.subscribe([0, 1])
    cuts = []
    appended = 0

    def append(ring, instance, val):
        nonlocal appended
        buffer.append(ring, instance, val)
        appended += 1
        if appended % cut_every == 0:
            cuts.append(buffer.cut())

    for (i, v0), (_, v1) in zip(entries(0, 0, 6), entries(1, 0, 6)):
        append(0, i, v0)
        append(1, i, v1)
    buffer.mark_down([0])
    cuts.append(buffer.cut())
    buffer.mark_restart([0])
    for instance, val in entries(0, 0, 11):
        append(0, instance, val)
    for instance, val in entries(1, 7, 11):
        append(1, instance, val)
    cuts.append(buffer.cut())
    return cuts


@pytest.mark.parametrize("cut_every", [1, 2, 3, 5, 100])
def test_any_chunking_of_the_cuts_equals_replay_of_the_shipped_streams(cut_every):
    cuts = _crash_history(cut_every)
    shipped = {0: [], 1: []}
    for segments in cuts:
        for ring, segment in segments.items():
            shipped[ring].extend(segment.entries)
    # Each decided instance was shipped exactly once ...
    assert shipped == {0: entries(0, 0, 11), 1: entries(1, 0, 11)}
    # ... and the barrier-by-barrier merge equals the one-chunk replay.
    assert merge_cuts([0, 1], cuts).merged == replay_streams(shipped)


class TestCursorContiguity:
    def test_lost_segment_fails_on_start(self):
        cursor = MergeCursor([0])
        cursor.feed_segments({0: RingSegment(0, entries(0, 0, 2))})
        # The segment carrying entries 3..4 was lost in transport.
        with pytest.raises(ValueError, match="ring 0 resumes at instance 5, expected 3"):
            cursor.feed_segments({0: RingSegment(5, entries(0, 5, 6))})

    def test_replayed_segment_fails_on_start(self):
        cursor = MergeCursor([0])
        segment = RingSegment(0, entries(0, 0, 2))
        cursor.feed_segments({0: segment})
        with pytest.raises(ValueError, match="lost or reordered in transport"):
            cursor.feed_segments({0: segment})

    def test_an_empty_segment_is_held_to_its_start_too(self):
        cursor = MergeCursor([0])
        cursor.feed_segments({0: RingSegment(0, entries(0, 0, 1))})
        cursor.feed_segments({0: RingSegment(2, [])})
        with pytest.raises(ValueError, match="resumes at instance 4, expected 2"):
            cursor.feed_segments({0: RingSegment(4, [])})


#: ``name -> (instances of one ring's stream, offending instance, expected,
#: error)``: two adjacent entries swapped, an entry skipping ahead, and an
#: entry below the ring's next instance that was never merged — the cursor
#: keeps nothing to tell it from a re-emission with a different value, the
#: only kind of re-emission the producer ships.
OUT_OF_ORDER = {
    "swapped": ([0, 2, 1], 2, 1, ValueError),
    "skips-ahead": ([0, 1, 3], 3, 2, ValueError),
    "never-merged": ([0, 1, -1], -1, 2, MergeDivergenceError),
}


def _message(case):
    _instances, instance, expected, error = OUT_OF_ORDER[case]
    if error is MergeDivergenceError:
        return rf"ring 5 instance {instance} was re-emitted .*: expected instance {expected}"
    return f"ring 5 instance {instance} is out of order: expected instance {expected}"


@pytest.mark.parametrize("case", sorted(OUT_OF_ORDER))
def test_cursor_feed_rejects_an_entry_out_of_ring_order(case):
    instances, _instance, _expected, error = OUT_OF_ORDER[case]
    cursor = MergeCursor([5])
    with pytest.raises(error, match=_message(case)):
        cursor.feed(5, [(i, value(f"i{i}")) for i in instances], start=0)


@pytest.mark.parametrize("case", sorted(OUT_OF_ORDER))
def test_replay_streams_rejects_an_entry_out_of_ring_order(case):
    """The offline anchor holds a recorded stream to the same rule."""
    instances, _instance, _expected, error = OUT_OF_ORDER[case]
    with pytest.raises(error, match=_message(case)):
        replay_streams({5: [(i, value(f"i{i}")) for i in instances]})


# ---------------------------------------------------------------------------
# Seeded mutants of the producer-side dedup: the tests above must catch them.
# ---------------------------------------------------------------------------

MUTANTS = {
    "drop re-emissions without comparing": (" and shipped[instance] == value.payload", ""),
    "forward every re-emission": ("elif instance", "elif False and instance"),
}

DIVERGENCE_TESTS = [
    TestBufferRestartDedup.test_divergent_reemission_is_cut_and_the_cursor_names_the_instance,
    TestBufferRestartDedup.test_a_skip_reemitted_where_a_value_was_shipped_diverges,
]

RESTART_TESTS = [
    TestBufferRestartDedup.test_equal_reemitted_prefix_never_reaches_a_cut,
    TestBufferRestartDedup.test_skip_reemission_dedups_like_any_value,
    TestBufferRestartDedup.test_reemission_before_the_prefix_is_complete_cuts_nothing,
    TestRingSegmentBufferCrashBoundary.test_uncut_tail_at_crash_is_neither_lost_nor_leaked,
    TestRingSegmentBufferCrashBoundary.test_restart_resumes_at_the_shipped_count,
    TestRingSegmentBufferCrashBoundary.test_cut_sequence_feeds_cursor_to_the_offline_anchor,
]


def _goes_red(test, owner):
    try:
        test(owner())
    except (AssertionError, ValueError, pytest.fail.Exception):
        return True
    return False


@pytest.mark.parametrize("mutant, tests", [
    ("drop re-emissions without comparing", DIVERGENCE_TESTS),
    ("forward every re-emission", RESTART_TESTS),
])
def test_seeded_dedup_mutants_turn_the_tests_red(monkeypatch, mutant, tests):
    for test in tests:
        assert not _goes_red(test, _owner(test)), f"{test.__qualname__} is red unmutated"
    monkeypatch.setattr(
        RingSegmentBuffer, "append", mutate(RingSegmentBuffer.append, MUTANTS[mutant])
    )
    survivors = [test.__qualname__ for test in tests if not _goes_red(test, _owner(test))]
    assert not survivors, f"mutant {mutant!r} survives {survivors}"


def _owner(test):
    return globals()[test.__qualname__.split(".")[0]]

"""Fault tolerance of the streaming merge: incarnation tags, dedup, and
watermark hygiene.

A crashed-and-restarted producer re-emits its ring's stream prefix under a
bumped incarnation; the cursor must dedup the prefix (verifying every
re-emitted instance decided the same value), reject stale or duplicated
barrier watermarks loudly, and validate resume positions and the instance
order inside a segment so a lost or reordered entry is an error rather than
a silent gap or a dropped "duplicate".  The
:class:`RingSegmentBuffer` is the producer half: its crash boundary must
drop the uncut tail (the restart re-emits it) and keep down rings out of
cuts so consumers stall honestly.
"""

import pytest

from repro.multiring.merge import (
    MergeCursor,
    MergeDivergenceError,
    RingSegment,
    RingSegmentBuffer,
    StaleWatermarkError,
    effective_streams,
    replay_streams,
)
from repro.paxos.messages import SKIP, ProposalValue


def value(payload, size=10):
    return ProposalValue(payload=payload, size_bytes=size)


def skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


def entries(ring, lo, hi):
    """Ordered (instance, value) pairs ``lo..hi`` inclusive for ``ring``."""
    return [(i, value(f"r{ring}i{i}")) for i in range(lo, hi + 1)]


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
        assert cursor.last_barrier == 2.0

    def test_per_ring_watermark_still_rejects_backwards(self):
        cursor = MergeCursor([0])
        cursor.feed(0, (), watermark=3.0)
        with pytest.raises(ValueError, match="backwards"):
            cursor.feed(0, (), watermark=2.0)


class TestIncarnationDedup:
    def test_restarted_producer_prefix_is_deduped(self):
        cursor = MergeCursor([0, 1])
        # Incarnation 0 ships instances 0..4 of ring 0.
        cursor.feed_segments(
            {
                0: RingSegment(incarnation=0, start=0, entries=entries(0, 0, 4)),
                1: RingSegment(incarnation=0, start=0, entries=entries(1, 0, 4)),
            },
            watermark=1.0,
        )
        # The producer restarts and re-emits 0..6: only 5, 6 are new.
        cursor.feed_segments(
            {
                0: RingSegment(incarnation=1, start=0, entries=entries(0, 0, 6)),
                1: RingSegment(incarnation=0, start=5, entries=entries(1, 5, 6)),
            },
            watermark=2.0,
        )
        assert cursor.duplicates_dropped == 5
        assert cursor.incarnation(0) == 1
        merged = [(g, i) for g, i, _ in cursor.merged]
        expected = replay_streams(
            {0: entries(0, 0, 6), 1: entries(1, 0, 6)}
        )
        assert merged == [(g, i) for g, i, _ in expected]

    def test_divergent_reemission_raises(self):
        cursor = MergeCursor([0])
        cursor.feed_segments(
            {0: RingSegment(incarnation=0, start=0, entries=entries(0, 0, 2))},
            watermark=1.0,
        )
        poisoned = entries(0, 0, 3)
        poisoned[1] = (1, value("not-what-was-decided"))
        with pytest.raises(MergeDivergenceError, match="instance 1"):
            cursor.feed_segments(
                {0: RingSegment(incarnation=1, start=0, entries=poisoned)},
                watermark=2.0,
            )

    def test_stale_incarnation_raises(self):
        cursor = MergeCursor([0])
        cursor.feed(0, entries(0, 0, 1), incarnation=2, start=0)
        with pytest.raises(ValueError, match="stale incarnation"):
            cursor.feed(0, entries(0, 2, 2), incarnation=1, start=0)

    def test_lost_segment_is_detected_by_resume_position(self):
        cursor = MergeCursor([0])
        cursor.feed(0, entries(0, 0, 2), incarnation=0, start=0)
        # The segment carrying entries 3..4 was lost in transport.
        with pytest.raises(ValueError, match="lost or reordered"):
            cursor.feed(0, entries(0, 5, 6), incarnation=0, start=5)

    def test_skip_reemission_dedups_like_any_value(self):
        cursor = MergeCursor([0])
        stream = [(0, value("a")), (1, skip()), (2, value("b"))]
        cursor.feed(0, stream, incarnation=0, start=0)
        cursor.feed(0, stream, incarnation=1, start=0)
        assert cursor.duplicates_dropped == 3
        assert [(g, i) for g, i, _ in cursor.merged] == [(0, 0), (0, 2)]


class TestRingSegmentBufferCrashBoundary:
    def test_uncut_tail_is_dropped_at_crash_and_ring_leaves_cuts(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([7])
        for instance, val in entries(7, 0, 2):
            buffer.append(7, instance, val)
        first = buffer.cut()
        assert [i for i, _ in first[7].entries] == [0, 1, 2]
        # Recorded after the cut, then the producer crashes: the tail must
        # not be shipped later — the restart re-emits it under the next
        # incarnation, and shipping both would hand the consumer a
        # non-contiguous stream.
        buffer.append(7, 3, value("r7i3"))
        before = buffer.total_entries
        buffer.mark_down([7])
        assert buffer.total_entries == before - 1
        assert buffer.cut() == {}, "down ring must be uncovered, not empty"

    def test_restart_bumps_incarnation_and_resets_resume_position(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([7])
        for instance, val in entries(7, 0, 2):
            buffer.append(7, instance, val)
        buffer.cut()
        buffer.mark_down([7])
        buffer.mark_restart([7])
        assert buffer.incarnation(7) == 1
        # The recreated learner re-emits from instance 0.
        for instance, val in entries(7, 0, 4):
            buffer.append(7, instance, val)
        segment = buffer.cut()[7]
        assert segment.incarnation == 1
        assert segment.start == 0
        assert [i for i, _ in segment.entries] == [0, 1, 2, 3, 4]

    def test_cut_sequence_feeds_cursor_to_the_offline_anchor(self):
        """The regression: crash between cuts, then restart and re-emit.

        Shipping every cut through a cursor must reproduce exactly
        ``replay_streams`` over the deduped stream — the pre-crash uncut
        tail neither leaks nor is lost.
        """
        buffer = RingSegmentBuffer()
        buffer.subscribe([0])
        cursor = MergeCursor([0])
        barrier = 0.0

        def ship():
            nonlocal barrier
            barrier += 1.0
            cuts = buffer.cut()
            cursor.feed_segments(cuts, watermark=barrier, groups=sorted(cuts))

        for instance, val in entries(0, 0, 2):
            buffer.append(0, instance, val)
        ship()
        buffer.append(0, 3, value("r0i3"))  # uncut at crash time
        buffer.mark_down([0])
        ship()  # barrier while down: uncovered
        buffer.mark_restart([0])
        for instance, val in entries(0, 0, 5):  # re-emission, plus progress
            buffer.append(0, instance, val)
        ship()
        expected = replay_streams({0: entries(0, 0, 5)})
        assert cursor.merged == expected
        assert cursor.duplicates_dropped == 3

    def test_idle_known_ring_yields_empty_covered_segment(self):
        buffer = RingSegmentBuffer()
        buffer.subscribe([3, 4])
        buffer.append(3, 0, value("x"))
        cuts = buffer.cut()
        assert set(cuts) == {3, 4}
        assert cuts[4].entries == []


class TestEffectiveStreams:
    def test_dedups_across_incarnations(self):
        history = {
            0: [
                RingSegment(incarnation=0, entries=entries(0, 0, 3)),
                RingSegment(incarnation=1, entries=entries(0, 0, 5)),
            ]
        }
        flat = effective_streams(history)
        assert [i for i, _ in flat[0]] == [0, 1, 2, 3, 4, 5]

    def test_divergent_history_raises(self):
        history = {
            0: [
                RingSegment(incarnation=0, entries=[(0, value("a"))]),
                RingSegment(incarnation=1, entries=[(0, value("b"))]),
            ]
        }
        with pytest.raises(MergeDivergenceError):
            effective_streams(history)

    def test_any_chunking_matches_the_anchor(self):
        history = {
            0: [
                RingSegment(incarnation=0, entries=entries(0, 0, 4)),
                RingSegment(incarnation=1, entries=entries(0, 0, 7)),
            ],
            1: [RingSegment(incarnation=0, entries=entries(1, 0, 7))],
        }
        anchor = replay_streams(effective_streams(history))
        for chunk in (1, 2, 3):
            cursor = MergeCursor([0, 1])
            barrier = 0.0
            for ring, runs in sorted(history.items()):
                for run in runs:
                    offset = 0
                    while offset < len(run.entries):
                        barrier += 1.0
                        piece = run.entries[offset:offset + chunk]
                        cursor.feed_segments(
                            {ring: RingSegment(run.incarnation, offset, piece)},
                            watermark=barrier,
                            groups=[ring],
                        )
                        offset += len(piece)
            assert cursor.merged == anchor


#: ``name -> (instances of one ring's stream, offending instance, expected)``:
#: two adjacent entries swapped, an entry skipping ahead, and an entry below
#: the ring's high mark that was never merged.
OUT_OF_ORDER = {
    "swapped": ([0, 2, 1], 2, 1),
    "skips-ahead": ([0, 1, 3], 3, 2),
    "never-merged": ([0, 1, -1], -1, 2),
}


def _message(case):
    _instances, instance, expected = OUT_OF_ORDER[case]
    return f"ring 5 instance {instance} is out of order: expected instance {expected}"


@pytest.mark.parametrize("case", sorted(OUT_OF_ORDER))
def test_cursor_feed_rejects_an_entry_out_of_ring_order(case):
    instances = OUT_OF_ORDER[case][0]
    cursor = MergeCursor([5])
    with pytest.raises(ValueError, match=_message(case)):
        cursor.feed(5, [(i, value(f"i{i}")) for i in instances], incarnation=0, start=0)


@pytest.mark.parametrize("case", sorted(OUT_OF_ORDER))
def test_effective_streams_rejects_an_entry_out_of_ring_order(case):
    instances = OUT_OF_ORDER[case][0]
    history = {5: [RingSegment(incarnation=0, entries=[(i, value(f"i{i}")) for i in instances])]}
    with pytest.raises(ValueError, match=_message(case)):
        effective_streams(history)

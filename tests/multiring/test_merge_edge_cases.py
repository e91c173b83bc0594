"""Edge cases of the deterministic merger around the fast-path refactor:
``fast_forward`` after checkpoint installs and mid-stream ``subscribe``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packing import PackedValues, iter_values
from repro.multiring.merge import DeterministicMerger, MergeCursor, replay_streams
from repro.paxos.messages import SKIP, ProposalValue


def value(payload, size=10):
    return ProposalValue(payload=payload, size_bytes=size)


def skip():
    return ProposalValue(payload=SKIP, size_bytes=0)


def make(groups, m=1):
    out = []
    merger = DeterministicMerger(
        groups, messages_per_round=m, on_deliver=lambda g, i, v: out.append((g, i, v.payload))
    )
    return merger, out


class TestFastForward:
    def test_drops_queued_entries_at_or_below_position(self):
        merger, out = make([0, 1])
        # Ring 1 races ahead while ring 0 stalls: instances queue up.
        for i in range(5):
            merger.offer(1, i, value(f"b{i}"))
        assert out == []
        merger.fast_forward({1: 2})
        # Instances 0-2 of ring 1 are covered by the checkpoint; only 3, 4
        # remain queued, and the merge restarts at a round boundary.
        assert len(merger._queues[1]) == 2
        assert merger.is_round_boundary()
        merger.offer(0, 0, value("a0"))
        merger.offer(0, 1, value("a1"))
        assert out == [(0, 0, "a0"), (1, 3, "b3"), (0, 1, "a1"), (1, 4, "b4")]

    def test_position_below_queue_head_is_a_noop_on_the_queue(self):
        merger, out = make([0, 1])
        merger.offer(1, 7, value("b7"))
        merger.fast_forward({1: 3})
        assert len(merger._queues[1]) == 1

    def test_unknown_group_positions_are_ignored(self):
        merger, _ = make([0])
        merger.fast_forward({5: 10})  # not subscribed — must not raise
        assert merger._groups == [0]

    def test_resets_mid_round_pointer(self):
        merger, out = make([0, 1], m=2)
        merger.offer(0, 0, value("a0"))  # one of two consumed from ring 0
        assert not merger.is_round_boundary()
        merger.fast_forward({})
        assert merger.is_round_boundary()
        # After the reset the merge wants ring 0 again from a fresh round.
        merger.offer(0, 1, value("a1"))
        merger.offer(0, 2, value("a2"))
        merger.offer(1, 0, value("b0"))
        assert out == [(0, 0, "a0"), (0, 1, "a1"), (0, 2, "a2"), (1, 0, "b0")]


class TestMidStreamSubscribe:
    def test_subscribe_resets_round_deterministically(self):
        merger, out = make([0])
        merger.offer(0, 0, value("a0"))
        merger.subscribe(1)
        assert merger._groups == [0, 1]
        assert merger.is_round_boundary()
        # The new round starts at the lowest group id, and ring 1 now gates
        # the round-robin exactly like an original subscription.
        merger.offer(0, 1, value("a1"))
        merger.offer(0, 2, value("a2"))
        assert out == [(0, 0, "a0"), (0, 1, "a1")]  # a2 waits for ring 1
        merger.offer(1, 0, value("b0"))
        assert out[-2:] == [(1, 0, "b0"), (0, 2, "a2")]

    def test_subscribe_lower_id_takes_merge_precedence(self):
        merger, out = make([5])
        merger.offer(5, 0, value("e0"))
        merger.subscribe(2)
        merger.offer(5, 1, value("e1"))  # queued: round now starts at ring 2
        assert out == [(5, 0, "e0")]
        merger.offer(2, 0, value("c0"))
        assert out[-2:] == [(2, 0, "c0"), (5, 1, "e1")]

    def test_subscribe_existing_group_is_a_noop(self):
        merger, out = make([0, 1])
        merger.offer(0, 0, value("a0"))
        merger.offer(1, 0, value("b0"))
        merger.subscribe(1)
        merger.offer(0, 1, value("a1"))
        merger.offer(1, 1, value("b1"))
        assert out == [(0, 0, "a0"), (1, 0, "b0"), (0, 1, "a1"), (1, 1, "b1")]

    def test_skips_still_advance_rounds_after_subscribe(self):
        merger, out = make([0])
        merger.subscribe(1)
        merger.offer(0, 0, value("a0"))
        merger.offer(1, 0, skip())
        merger.offer(0, 1, value("a1"))
        assert out == [(0, 0, "a0"), (0, 1, "a1")]
        assert merger._skipped == 1
        assert merger.delivered_count == 2


class TestOfferFastPathEquivalence:
    """The empty-queue direct-emit path must not change the merge order."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2]), min_size=0, max_size=30), st.integers(1, 3))
    def test_any_interleaving_produces_the_round_robin_order(self, picks, m):
        merger, out = make([0, 1, 2], m=m)
        counters = {0: 0, 1: 0, 2: 0}
        for g in picks:
            merger.offer(g, counters[g], value((g, counters[g])))
            counters[g] += 1
        # Reference: feed the same per-ring streams strictly ring-by-ring.
        ref_merger, ref_out = make([0, 1, 2], m=m)
        for g in (0, 1, 2):
            for i in range(counters[g]):
                ref_merger.offer(g, i, value((g, i)))
        assert sorted(out) == sorted(ref_out)
        # Prefix property: whatever was emitted follows ascending instance
        # order per ring.
        for g in (0, 1, 2):
            per_ring = [i for gg, i, _ in out if gg == g]
            assert per_ring == sorted(per_ring)


class TestPackedFanOut:
    """A packed instance fans out leaf by leaf, whichever path consumes it."""

    @staticmethod
    def pack(*values):
        return value(PackedValues(values=list(values)), size=sum(v.size_bytes for v in values))

    def instances(self):
        flat = self.pack(value("a"), skip(), value("b"))
        inner = self.pack(value("d"), skip(), self.pack(value("e")))
        nested = self.pack(value("c"), inner, value("f"))
        return [flat, nested, value("g"), skip()]

    def expected(self, group):
        return [
            (group, instance, leaf.payload)
            for instance, packed in enumerate(self.instances())
            for leaf in iter_values(packed)
            if leaf.payload is not SKIP
        ]

    def test_direct_emit_path(self):
        merger, out = make([0])
        for instance, packed in enumerate(self.instances()):
            merger.offer(0, instance, packed)
        assert out == self.expected(0)
        assert merger.delivered_count == 7
        assert merger._skipped == 3

    def test_queued_path(self):
        merger, out = make([0, 1], m=4)
        for instance, packed in enumerate(self.instances()):
            merger.offer(1, instance, packed)  # ring 0 has the turn: queued
        assert out == []
        for instance in range(4):
            merger.offer(0, instance, skip())
        assert out == self.expected(1)
        assert merger.delivered_count == 7
        assert merger._skipped == 3 + 4


class TestMergeCursor:
    """Edge cases of the streaming merge cursor (the reactive merge stage)."""

    def _cursor(self, groups, m=1):
        out = []
        cursor = MergeCursor(
            groups,
            messages_per_round=m,
            on_deliver=lambda g, i, v: out.append((g, i, v.payload)),
        )
        return cursor, out

    # -------------------------------------------------- empty per-ring streams
    def test_empty_stream_gates_the_round_robin(self):
        """A subscribed ring that never produces blocks emission past it —
        the cursor must not invent progress an absent stream could refute."""
        cursor, out = self._cursor([0, 1])
        drained = cursor.feed_segments({0: [(0, value("a0")), (1, value("a1"))]},
                                       watermark=1.0)
        assert [v.payload for _, _, v in drained] == ["a0"]
        assert out == [(0, 0, "a0")]
        assert len(cursor._merger._queues[0]) == 1  # a1 waits for ring 1's first entry
        # An explicitly empty segment for ring 1 changes nothing but the
        # watermark — still no emission past the empty ring.
        drained = cursor.feed_segments({1: []}, watermark=2.0)
        assert drained == []
        assert cursor.watermark == 2.0

    def test_replay_of_empty_stream_mapping_matches_cursor(self):
        streams = {0: [(0, value("a0"))], 1: []}
        replayed = replay_streams(streams)
        assert [(g, i, v.payload) for g, i, v in replayed] == [(0, 0, "a0")]

    # ------------------------------------------------------ learner-only rings
    def test_learner_only_ring_of_skips_advances_but_delivers_nothing(self):
        """A ring carrying only rate-leveled skips (fig6's common ring, a
        learner-only subscription) advances the round-robin silently."""
        cursor, out = self._cursor([0, 99])
        cursor.feed(0, [(i, value(f"a{i}")) for i in range(3)], watermark=1.0)
        cursor.feed(99, [(i, skip()) for i in range(3)], watermark=1.0)
        assert out == [(0, 0, "a0"), (0, 1, "a1"), (0, 2, "a2")]
        assert cursor._merger._skipped == 3
        assert cursor._merger.delivered_count == 3
        assert cursor.watermark == 1.0

    # ------------------------------------- trailing SKIP runs and watermarks
    def test_trailing_skip_run_does_not_emit_past_the_joint_watermark(self):
        """A stream ending in a run of SKIPs must not let the cursor emit
        deliveries the other ring has not yet covered: the joint watermark —
        and the round-robin gate behind it — stays at the slower ring."""
        cursor, out = self._cursor([0, 1])
        # Ring 0 complete up to t=5: one payload, then only skips.
        cursor.feed(0, [(0, value("a0"))] + [(i, skip()) for i in range(1, 6)],
                    watermark=5.0)
        # Ring 1 lags: complete only up to t=1, nothing decided yet.
        cursor.feed(1, [], watermark=1.0)
        assert cursor.watermark == 1.0
        assert out == [(0, 0, "a0")]
        assert [v.payload for _, _, v in cursor.drain()] == ["a0"]
        # Ring 0's skip run is consumed only as ring 1 catches up — one
        # round-robin turn per ring-1 entry, never beyond the joint watermark.
        drained = cursor.feed_segments({1: [(0, value("b0"))]}, watermark=2.0)
        assert [v.payload for _, _, v in drained] == ["b0"]
        assert cursor.watermark == 2.0
        assert len(cursor._merger._queues[0]) > 0, "trailing skips must not all be consumed"
        # Once ring 1 ends too, the skip tail drains without emitting anything.
        before = len(out)
        cursor.feed_segments({1: [(i, skip()) for i in range(1, 6)]}, watermark=5.0)
        assert len(out) == before
        assert cursor.watermark == 5.0
        assert len(cursor._merger._queues[0]) == 0

    def test_watermark_none_until_every_ring_reports(self):
        cursor, _ = self._cursor([0, 1])
        assert cursor.watermark is None
        cursor.feed(0, [], watermark=3.0)
        assert cursor.watermark is None
        cursor.feed(1, [], watermark=2.0)
        assert cursor.watermark == 2.0

    def test_watermark_must_not_move_backwards(self):
        cursor, _ = self._cursor([0])
        cursor.feed(0, [], watermark=2.0)
        with pytest.raises(ValueError, match="backwards"):
            cursor.feed(0, [], watermark=1.0)

    def test_feeding_an_unsubscribed_ring_raises(self):
        cursor, _ = self._cursor([0])
        with pytest.raises(KeyError):
            cursor.feed(7, [(0, value("x"))])

    # --------------------------------------------- chunking invariance (core)
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
        st.integers(1, 3),
    )
    def test_any_chunking_matches_the_offline_replay(self, chunks, m):
        """Streaming the same streams in arbitrary segment sizes is
        bit-identical to the offline replay — the merge-stage invariant the
        reactive differential tests rely on."""
        streams = {
            0: [(i, value(f"a{i}") if i % 3 else skip()) for i in range(10)],
            1: [(i, value(f"b{i}")) for i in range(7)],
            2: [(i, skip()) for i in range(9)],
        }
        reference = [
            (g, i, v.payload)
            for g, i, v in replay_streams(streams, messages_per_round=m)
        ]
        cursor, out = self._cursor([0, 1, 2], m=m)
        positions = {g: 0 for g in streams}
        barrier = 0
        chunk_index = 0
        while any(positions[g] < len(streams[g]) for g in streams):
            barrier += 1
            chunk = chunks[chunk_index % len(chunks)]
            chunk_index += 1
            segments = {}
            for g in sorted(streams):
                at = positions[g]
                entries = streams[g][at:at + chunk]
                if entries:
                    segments[g] = entries
                    positions[g] += len(entries)
            cursor.feed_segments(segments, watermark=float(barrier))
        assert out == reference
        assert cursor.watermark == float(barrier)


class TestSoleStreamPath:
    """One subscription and M = 1: ``offer`` returns right after the emit.

    Differential against the general path on the same object model — a
    second merger whose ``_sole_stream`` is switched off runs the round
    bookkeeping (`_consumed_in_round`, pointer wrap, `_advance`) on every
    offer, as every merger did before the shortcut.
    """

    kinds = st.lists(st.sampled_from(["plain", "skip", "packed", "nested"]), max_size=30)

    @staticmethod
    def _stream(kinds):
        for i, kind in enumerate(kinds):
            if kind == "plain":
                yield value(f"p{i}")
            elif kind == "skip":
                yield skip()
            elif kind == "packed":
                yield value(PackedValues([value(f"a{i}"), skip(), value(f"b{i}")]))
            else:
                yield value(PackedValues([value(PackedValues([value(f"n{i}")])), value(f"m{i}")]))

    @staticmethod
    def _pair(general_from_start=True):
        mergers, logs = [], []
        for _ in range(2):
            log = []
            merger = DeterministicMerger([4], on_deliver=lambda g, i, v, log=log, n=len(mergers): log.append(
                (g, i, v.payload, mergers[n].is_round_boundary(), mergers[n].delivered_count)
            ))
            mergers.append(merger)
            logs.append(log)
        assert mergers[0]._sole_stream and mergers[1]._sole_stream
        mergers[1]._sole_stream = not general_from_start
        return mergers, logs

    @staticmethod
    def _state(merger):
        return (
            merger.delivered_count, merger._skipped, merger._groups[merger._current_index],
            merger.is_round_boundary(), [len(merger._queues[g]) for g in merger._groups],
        )

    @given(kinds)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_general_path(self, kinds):
        (sole, general), (sole_log, general_log) = self._pair()
        for instance, item in enumerate(self._stream(kinds)):
            sole.offer(4, instance, item)
            general.offer(4, instance, item)
            assert self._state(sole) == self._state(general)
        assert sole_log == general_log

    def _subscribe_mid_stream(self, kinds, at, other):
        (sole, general), (sole_log, general_log) = self._pair()
        for instance, item in enumerate(self._stream(kinds)):
            if instance == at:
                sole.subscribe(other)
                general.subscribe(other)
            for merger in (sole, general):
                merger.offer(4, instance, item)
                if instance >= at:
                    merger.offer(other, instance, value(f"o{instance}"))
            assert self._state(sole) == self._state(general)
        assert sole_log == general_log

    @given(kinds, st.integers(0, 30), st.sampled_from([2, 9]))
    @settings(max_examples=150, deadline=None)
    def test_subscribe_mid_stream_reverts_for_good(self, kinds, at, other):
        self._subscribe_mid_stream(kinds, at, other)

    def test_more_than_one_instance_per_round_takes_the_general_path(self):
        merger, out = make([4], m=2)
        assert not merger._sole_stream
        merger.offer(4, 0, value("a"))
        assert not merger.is_round_boundary()  # half a round consumed
        merger.offer(4, 1, value("b"))
        assert merger.is_round_boundary()

    def test_mutant_subscribe_that_keeps_the_shortcut_is_caught(self, monkeypatch):
        from tests.conftest import mutate

        stream = ["plain", "skip", "plain", "packed"]
        self._subscribe_mid_stream(stream, 1, 9)
        monkeypatch.setattr(
            DeterministicMerger, "subscribe",
            mutate(DeterministicMerger.subscribe, ("    self._sole_stream = False\n", "")),
        )
        with pytest.raises(AssertionError):
            self._subscribe_mid_stream(stream, 1, 9)

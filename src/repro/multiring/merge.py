"""Deterministic merge of multiple ring streams.

A Multi-Ring Paxos learner subscribed to several rings must deliver messages
from those rings in an order that every other learner with the same
subscriptions reproduces exactly.  The paper's rule (Section 4): deliver the
messages decided in ``M`` consensus instances from the first ring (lowest
ring id), then ``M`` instances from the second ring, and so on, wrapping
around.

Skip instances (proposed by rate leveling) count towards the ``M`` instances
of their ring but deliver nothing to the application — they exist precisely so
that an idle ring does not stall the round-robin.

:class:`DeterministicMerger` consumes per-ring streams of *ordered* decided
instances (produced by :class:`repro.ringpaxos.learner.RingLearner`) and emits
application deliveries.  It is a pure data structure, which makes the ordering
property easy to test: any interleaving of `offer()` calls produces the same
delivery sequence.

That interleaving-independence is also what makes the merge *streamable*:
:class:`MergeCursor` consumes per-ring decision-stream **segments** — the
entries recorded since the last barrier, tagged with a per-ring watermark —
as they arrive and emits merged round-robin deliveries incrementally.  The
sharded execution engine uses it as its **merge stage**: a deployment whose
rings share learners only (the paper's Figure 6/7 configurations) runs one
ring component per shard, each shard cuts a segment from its recorded
per-ring streams at every barrier (skips included, via
:class:`RingSegmentBuffer`), and the parent feeds the segments into a cursor
driving live service replicas (see :mod:`repro.sim.parallel`,
:class:`repro.core.smr.ReactiveReplicaHost` and :mod:`repro.bench.parallel`).
:func:`replay_streams` — the offline whole-run replay — is a thin wrapper
that feeds a cursor each complete stream in one segment; by
interleaving-independence the streaming and offline orders are identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..paxos.messages import SKIP, ProposalValue
from ..ringpaxos.coordinator import PackedValues
from ..sim.network import _wire_build


def _iter_leaf_values(value: ProposalValue):
    """Resolve :func:`repro.core.packing.iter_values` on first use.

    The merge stage sits below :mod:`repro.core` in the import graph
    (``core.smr`` imports this module), so the shared unpacker cannot be
    imported at module load without a package cycle.  The first call swaps
    this stub for the real function, so the hot path pays nothing after
    that.
    """
    global _iter_leaf_values
    from ..core.packing import iter_values as _iter_leaf_values

    return _iter_leaf_values(value)


__all__ = [
    "DeterministicMerger",
    "MergeCursor",
    "MergeDivergenceError",
    "RingSegment",
    "RingSegmentBuffer",
    "StaleWatermarkError",
    "effective_streams",
    "replay_streams",
]

DeliverCallback = Callable[[int, int, ProposalValue], None]

#: One ring's recorded output: ordered ``(instance, value)`` pairs exactly as
#: a :class:`~repro.ringpaxos.learner.RingLearner` emitted them (skips
#: included — the round-robin needs them to advance).
RingStream = Sequence[Tuple[int, ProposalValue]]


class StaleWatermarkError(ValueError):
    """A barrier watermark regressed or duplicated an earlier one.

    Raised by :meth:`MergeCursor.feed_segments` instead of silently keeping
    the old marks — a stale barrier that never advanced anything used to
    wedge the joint watermark with no visible symptom.
    """


class MergeDivergenceError(ValueError):
    """Two feeds decided different values for the same ``(ring, instance)``.

    A restarted learner legitimately re-emits a prefix of its ring's decided
    stream; the cursor discards those duplicates after verifying the payload
    matches what was merged the first time.  A mismatch means the streams
    genuinely diverged — consensus safety is broken somewhere upstream — and
    must surface as a hard error, not be papered over by the dedup.
    """


@dataclass(slots=True)
class RingSegment:
    """One ring's decision-stream slice, tagged for crash-safe streaming.

    Attributes
    ----------
    incarnation:
        The producing process's incarnation (crash/restart count) when the
        entries were recorded.  A restarted learner re-emits its ring's
        stream from instance 0 under a higher incarnation; consumers use the
        bump to reset their resume-position check and dedup the re-emitted
        prefix.
    start:
        Resume position: how many entries of this incarnation's stream were
        shipped before this segment.  Consumers verify contiguity so a
        segment lost in transport is an error, not a silent gap.
    entries:
        The ordered ``(instance, value)`` pairs recorded since the previous
        cut (skips included).  May be empty — an empty segment still tells
        the consumer the ring was covered up to the barrier.
    """

    incarnation: int = 0
    start: int = 0
    entries: List[Tuple[int, ProposalValue]] = field(default_factory=list)

    def __reduce__(self):
        """Pickle form: columnar and skip-run-compressed (see below)."""
        count = len(self.entries)
        instances: Union[int, Tuple[int, ...]] = 0
        values: Tuple[ProposalValue, ...] = ()
        if count:
            instances, values = zip(*self.entries)
            first = instances[0]
            if instances == tuple(range(first, first + count)):
                instances = first
        packed: List[Union[ProposalValue, Tuple[int, ProposalValue]]] = []
        idx = 0
        while idx < count:
            value = values[idx]
            end = idx + 1
            if value.payload is SKIP:
                while end < count and values[end] == value:
                    end += 1
            if end - idx >= _SEGMENT_RUN_MIN:
                packed.append((end - idx, value))
            else:
                packed.extend(values[idx:end])
            idx = end
        return _segment_wire_build, (
            self.incarnation,
            self.start,
            instances,
            count,
            tuple(packed),
        )


# Segments are the bulk of barrier traffic in streaming-merge runs, and their
# entry lists are extremely regular: instances are consecutive (learners record
# every instance in order) and rate-leveled skips arrive in bursts of
# field-identical ``ProposalValue(SKIP, ...)`` records.  The pickle form
# (``RingSegment.__reduce__``, which the barrier codec leaves to pickle)
# exploits both: it splits ``entries`` into an instance column (a single start
# instance when consecutive, the common case) and a value column, and
# run-length encodes equal skip runs.  Decoding expands runs into *fresh*
# ``ProposalValue`` instances, so receivers see the same no-aliasing object
# graph generic pickling produced.

#: Shortest equal-skip run worth a ``(count, value)`` marker.  Below this the
#: per-run tuple overhead exceeds the interned-skip back-reference it replaces.
_SEGMENT_RUN_MIN = 3


def _segment_wire_build(
    incarnation: int,
    start: int,
    instances: Union[int, Tuple[int, ...]],
    count: int,
    packed: Tuple[Union[ProposalValue, Tuple[int, ProposalValue]], ...],
) -> "RingSegment":
    """Rebuild a :class:`RingSegment` from its compressed wire form."""
    values: List[ProposalValue] = []
    for item in packed:
        if type(item) is tuple:
            run, value = item
            values.append(value)
            fields = (
                value.payload,
                value.size_bytes,
                value.proposer,
                value.proposal_id,
                value.created_at,
            )
            values.extend(map(_wire_build, repeat(ProposalValue, run - 1), repeat(fields)))
        else:
            values.append(item)
    if type(instances) is tuple:
        entries = list(zip(instances, values))
    else:
        entries = list(zip(range(instances, instances + count), values))
    return RingSegment(incarnation=incarnation, start=start, entries=entries)


#: What ``feed_segments`` accepts per ring: a tagged segment or a bare
#: entry list (the pre-incarnation form, still used by offline replays).
SegmentLike = Union["RingSegment", Iterable[Tuple[int, ProposalValue]]]


def effective_streams(
    history: Mapping[int, Sequence[RingSegment]],
) -> Dict[int, List[Tuple[int, ProposalValue]]]:
    """Collapse incarnation-segmented recordings into deduped whole streams.

    ``history`` maps each ring to its recorded incarnation runs in
    chronological order (see :attr:`repro.core.smr.ReactiveMergeStage.streams`).
    Restarted learners re-emit stream prefixes; this helper drops the
    duplicates — verifying each one decided the same value as the original
    emission, raising :class:`MergeDivergenceError` otherwise — and returns
    the plain per-ring streams :func:`replay_streams` consumes.  It is the
    offline anchor builder for runs with crashes: feeding any chunking of
    ``history`` through a :class:`MergeCursor` must match
    ``replay_streams(effective_streams(history))`` exactly.  An entry that
    breaks its ring's contiguous stream raises ``ValueError`` (see
    :meth:`MergeCursor.feed`).
    """
    streams: Dict[int, List[Tuple[int, ProposalValue]]] = {}
    for ring_id in sorted(history):
        out: List[Tuple[int, ProposalValue]] = []
        seen: Dict[int, ProposalValue] = {}
        high = -1
        for segment in history[ring_id]:
            for instance, value in segment.entries:
                if instance <= high:
                    original = seen.get(instance)
                    if original is None:
                        raise _out_of_order(ring_id, instance, high)
                    if original.payload != value.payload:
                        raise MergeDivergenceError(
                            f"ring {ring_id} instance {instance} re-emitted a "
                            f"different value ({original.payload!r} vs "
                            f"{value.payload!r})"
                        )
                    continue
                if instance != high + 1:
                    raise _out_of_order(ring_id, instance, high)
                out.append((instance, value))
                seen[instance] = value
                high = instance
        streams[ring_id] = out
    return streams


def _out_of_order(ring_id: int, instance: int, high: int) -> ValueError:
    """The error for an entry that is neither the next instance nor a duplicate."""
    return ValueError(
        f"ring {ring_id} instance {instance} is out of order: expected instance "
        f"{high + 1} (a reordered or lost segment entry)"
    )


def replay_streams(
    streams: Mapping[int, RingStream],
    messages_per_round: int = 1,
    on_deliver: Optional[DeliverCallback] = None,
) -> List[Tuple[int, int, ProposalValue]]:
    """Replay recorded per-ring decision streams through the deterministic merge.

    The offline form of the merge stage: given, for every subscribed group,
    the ordered ``(instance, value)`` stream its ring decided (skips
    included), reconstruct the delivery sequence a learner subscribed to all
    of them would produce.  Implemented as a thin wrapper over
    :class:`MergeCursor` — each complete stream is fed as one segment, and
    because the merge is insensitive to how inputs interleave across groups,
    the result is identical to any segment-by-segment streaming of the same
    streams (the property the reactive differential tests pin down).

    Returns the merged deliveries as ``(group, instance, value)`` triples
    (skips consumed silently, batches unpacked — the same output an online
    merger hands to the application).  ``on_deliver`` is additionally invoked
    per delivery when given.
    """
    if not streams:
        raise ValueError("replay needs at least one group stream")
    cursor = MergeCursor(
        sorted(streams), messages_per_round=messages_per_round, on_deliver=on_deliver
    )
    for group in sorted(streams):
        cursor.feed(group, streams[group])
    return cursor.merged


class RingSegmentBuffer:
    """Accumulates per-ring ordered instances between barrier cuts.

    The producer side of the streaming merge: installed as a ring-stream tap
    (:meth:`repro.multiring.process.MultiRingProcess.record_ring_segments`),
    it collects every ``(instance, value)`` a ring learner emits — skips
    included — and :meth:`cut` hands over everything recorded since the last
    cut as one tagged :class:`RingSegment` per ring, ready to ship through a
    barrier.  Several processes may share one buffer (their rings are
    disjoint).

    Crash safety: the buffer tracks each ring's incarnation and resume
    position.  :meth:`mark_down` (the producer crashed) drops the entries
    recorded since the last cut — the restarted learner re-emits them, and
    shipping a pre-crash tail next to the incarnation-0 re-emission would
    hand the consumer a non-contiguous mess — and keeps the ring out of cuts
    until :meth:`mark_restart` announces the next incarnation.  Rings marked
    down are *uncovered*: their absence from a cut tells the merge stage not
    to advance their watermark past the barrier.
    """

    __slots__ = ("_entries", "_incarnations", "_positions", "_down", "_known", "total_entries")

    def __init__(self) -> None:
        self._entries: Dict[int, List[Tuple[int, ProposalValue]]] = {}
        self._incarnations: Dict[int, int] = {}
        #: Entries already cut in the ring's current incarnation.
        self._positions: Dict[int, int] = {}
        #: Rings whose producer is crashed — excluded from cuts.
        self._down: Set[int] = set()
        #: Every ring ever subscribed or recorded; covered cuts include them
        #: even when idle, so the consumer can advance their watermarks.
        self._known: Set[int] = set()
        #: Entries recorded over the buffer's lifetime (cuts included).
        self.total_entries = 0

    def subscribe(self, ring_ids: Iterable[int]) -> None:
        """Declare rings up-front so idle ones still appear in covered cuts."""
        self._known.update(ring_ids)

    def append(self, ring_id: int, instance: int, value: ProposalValue) -> None:
        """Record one ordered instance (the tap callback)."""
        self._known.add(ring_id)
        self._entries.setdefault(ring_id, []).append((instance, value))
        self.total_entries += 1

    def mark_down(self, ring_ids: Iterable[int]) -> None:
        """The producer of these rings crashed: drop its uncut tail.

        The dropped entries are not lost — the restarted learner re-emits
        the whole prefix under its next incarnation — and until
        :meth:`mark_restart` the rings are omitted from cuts, which is how
        the consumer learns their streams are no longer complete up to the
        barrier.
        """
        for ring_id in ring_ids:
            self._known.add(ring_id)
            self._down.add(ring_id)
            dropped = self._entries.pop(ring_id, None)
            if dropped:
                self.total_entries -= len(dropped)

    def mark_restart(self, ring_ids: Iterable[int]) -> None:
        """The producer restarted: open the rings' next incarnation.

        Resume positions reset to 0 — the recreated learner re-emits its
        ring's stream from the first instance — and the rings re-enter cuts
        immediately (the re-emitted prefix is a valid, contiguous stream of
        the new incarnation even while gap repair is still filling it).
        """
        for ring_id in ring_ids:
            self._known.add(ring_id)
            self._down.discard(ring_id)
            self._incarnations[ring_id] = self._incarnations.get(ring_id, 0) + 1
            self._positions[ring_id] = 0
            # Anything recorded between crash and restart would be stale;
            # mark_down already dropped it, but be safe against direct use.
            self._entries.pop(ring_id, None)

    def cut(self) -> Dict[int, RingSegment]:
        """Detach the segments recorded since the last cut, tagged.

        Every known ring whose producer is up yields a segment — an empty
        one when the ring was idle, which still advances the consumer-side
        watermark.  Rings marked down are omitted (uncovered).
        """
        segments: Dict[int, RingSegment] = {}
        entries = self._entries
        self._entries = {}
        for ring_id in self._known:
            if ring_id in self._down:
                entries.pop(ring_id, None)
                continue
            recorded = entries.pop(ring_id, None) or []
            start = self._positions.get(ring_id, 0)
            segments[ring_id] = RingSegment(
                incarnation=self._incarnations.get(ring_id, 0),
                start=start,
                entries=recorded,
            )
            self._positions[ring_id] = start + len(recorded)
        # Entries for rings never subscribed nor marked cannot exist (append
        # adds to _known), but drop any leftovers defensively.
        return segments

    def incarnation(self, ring_id: int) -> int:
        """The ring's current incarnation (0 until its first restart)."""
        return self._incarnations.get(ring_id, 0)

    def __bool__(self) -> bool:
        return bool(self._entries)


class MergeCursor:
    """Incremental round-robin merge over per-ring decision-stream segments.

    The streaming form of the merge stage: segments — the ``(instance,
    value)`` entries a ring decided since the last barrier, optionally tagged
    with a **watermark** (the simulated time up to which that ring's stream
    is known complete) — are fed as they arrive, and the cursor emits merged
    deliveries as soon as the round-robin can consume them.  Emission is
    gated by the inputs themselves: the round-robin stalls at the first
    subscribed ring with no queued entries, so the cursor never emits a
    delivery that a later segment could reorder — deliveries drained after
    feeding every ring up to watermark ``W`` are final, and
    :attr:`watermark` (the joint minimum) tells consumers how fresh the
    merged state is.

    Wraps a :class:`DeterministicMerger`, so the cumulative delivery sequence
    is bit-identical to the offline :func:`replay_streams` of the
    concatenated segments, for every chunking.

    Parameters
    ----------
    retain_history:
        Keep every delivery for :attr:`merged` (the default; what
        :func:`replay_streams` and the differential digests need).  Pass
        ``False`` for long-running reactive consumers that only process
        :meth:`drain` windows — the cursor then holds no more than one
        barrier's deliveries, instead of the whole run's.
    """

    def __init__(
        self,
        group_ids: Sequence[int],
        messages_per_round: int = 1,
        on_deliver: Optional[DeliverCallback] = None,
        retain_history: bool = True,
    ) -> None:
        self._on_deliver = on_deliver
        self._retain = retain_history
        self._merged: List[Tuple[int, int, ProposalValue]] = []
        self._drained = 0
        groups = sorted(set(group_ids))
        self._watermarks: Dict[int, Optional[float]] = {g: None for g in groups}
        #: Last barrier watermark accepted by :meth:`feed_segments`.
        self._last_barrier: Optional[float] = None
        #: Per-ring incarnation/resume-position tracking (crash-safe feeds).
        self._incarnations: Dict[int, int] = {g: 0 for g in groups}
        self._positions: Dict[int, int] = {g: 0 for g in groups}
        #: Highest instance merged per ring, and what each instance decided —
        #: the dedup floor and the divergence oracle for re-emitted prefixes.
        self._high: Dict[int, int] = {g: -1 for g in groups}
        self._seen: Dict[int, Dict[int, ProposalValue]] = {g: {} for g in groups}
        self._duplicates = 0
        self._merger = DeterministicMerger(
            group_ids, messages_per_round=messages_per_round, on_deliver=self._collect
        )

    def _collect(self, group: int, instance: int, value: ProposalValue) -> None:
        self._merged.append((group, instance, value))
        if self._on_deliver is not None:
            self._on_deliver(group, instance, value)

    # ---------------------------------------------------------------- inputs
    def feed(
        self,
        group_id: int,
        entries: Iterable[Tuple[int, ProposalValue]] = (),
        watermark: Optional[float] = None,
        incarnation: Optional[int] = None,
        start: Optional[int] = None,
    ) -> None:
        """Feed one ring's next segment (possibly empty) into the merge.

        ``entries`` must continue the ring's ordered stream exactly where the
        previous segment ended.  ``watermark`` advances the ring's completion
        time — an empty segment with a watermark is how an idle ring reports
        progress; feeding a watermark that moves backwards is an error.

        ``incarnation``/``start`` are the crash-safety tags carried by
        :class:`RingSegment`: a higher incarnation announces the producer
        restarted (its re-emitted stream prefix is deduped against what was
        already merged — a payload mismatch raises
        :class:`MergeDivergenceError`), and ``start`` is verified against the
        entries consumed so far in that incarnation so a segment lost in
        transport surfaces as an error instead of a silent gap.  Within the
        entries, each one must be the ring's next instance or re-emit one
        already merged: an entry that skips ahead, or one below the ring's
        high mark that was never merged (a reordered segment), raises
        ``ValueError`` naming the ring, the instance and the expected one.
        """
        if group_id not in self._watermarks:
            raise KeyError(f"not subscribed to group {group_id}")
        if watermark is not None:
            previous = self._watermarks[group_id]
            if previous is not None and watermark < previous:
                raise ValueError(
                    f"watermark of group {group_id} moved backwards "
                    f"({previous} -> {watermark})"
                )
            self._watermarks[group_id] = watermark
        if incarnation is not None:
            current = self._incarnations[group_id]
            if incarnation < current:
                raise ValueError(
                    f"segment of group {group_id} carries stale incarnation "
                    f"{incarnation} (current {current})"
                )
            if incarnation > current:
                self._incarnations[group_id] = incarnation
                self._positions[group_id] = 0
            if start is not None and start != self._positions[group_id]:
                raise ValueError(
                    f"segment of group {group_id} incarnation {incarnation} "
                    f"resumes at position {start}, expected "
                    f"{self._positions[group_id]} — a segment was lost or "
                    f"reordered in transport"
                )
        count = 0
        high = self._high[group_id]
        seen = self._seen[group_id]
        offer = self._merger.offer
        for instance, value in entries:
            count += 1
            if instance <= high:
                # Re-emitted prefix of a restarted producer: drop it, but
                # only after checking it decided the very same value.
                original = seen.get(instance)
                if original is None:
                    raise _out_of_order(group_id, instance, high)
                if original.payload != value.payload:
                    raise MergeDivergenceError(
                        f"ring {group_id} instance {instance} re-emitted a "
                        f"different value ({original.payload!r} vs "
                        f"{value.payload!r})"
                    )
                self._duplicates += 1
                continue
            if instance != high + 1:
                raise _out_of_order(group_id, instance, high)
            seen[instance] = value
            high = instance
            offer(group_id, instance, value)
        self._high[group_id] = high
        if incarnation is not None:
            self._positions[group_id] += count

    def feed_segments(
        self,
        segments: Mapping[int, "SegmentLike"],
        watermark: Optional[float] = None,
        groups: Optional[Iterable[int]] = None,
    ) -> List[Tuple[int, int, ProposalValue]]:
        """Feed one barrier's segments for every subscribed ring; drain.

        ``watermark`` (the barrier time) advances every covered ring not
        already past it (a ring ahead of the barrier keeps its own mark) —
        watermarks are applied before any entry so deliveries emitted by this
        call observe the joint watermark they became final at.  ``groups``
        limits which rings the barrier covers: rings outside it keep their
        marks (their streams are not known complete up to the barrier — e.g.
        their producer is crashed or partitioned away), which is what lets
        the joint watermark stall honestly instead of over-promising
        freshness.  By default every subscribed ring is covered.

        Barrier watermarks must strictly advance: a regressed or duplicated
        one raises :class:`StaleWatermarkError` naming the marks — silently
        ignoring it used to wedge the joint watermark forever.

        Segment values may be tagged :class:`RingSegment` instances (their
        incarnation/resume tags are enforced, see :meth:`feed`) or bare entry
        iterables.  Returns the deliveries newly emitted by this barrier
        (see :meth:`drain`).
        """
        if watermark is not None:
            if self._last_barrier is not None and watermark <= self._last_barrier:
                marks = {g: m for g, m in self._watermarks.items()}
                raise StaleWatermarkError(
                    f"barrier watermark {watermark} does not advance past the "
                    f"previous barrier {self._last_barrier} (ring marks: "
                    f"{marks}) — stale or duplicated segment shipment"
                )
            self._last_barrier = watermark
            covered = self._watermarks if groups is None else groups
            for group in covered:
                current = self._watermarks[group]
                if current is None or watermark > current:
                    self.feed(group, (), watermark)
        for group in sorted(segments):
            segment = segments[group]
            if isinstance(segment, RingSegment):
                self.feed(
                    group,
                    segment.entries,
                    incarnation=segment.incarnation,
                    start=segment.start,
                )
            else:
                self.feed(group, segment)
        return self.drain()

    # --------------------------------------------------------------- outputs
    def drain(self) -> List[Tuple[int, int, ProposalValue]]:
        """Deliveries emitted since the last drain (finalised merge output)."""
        if self._retain:
            new = self._merged[self._drained:]
            self._drained = len(self._merged)
            return new
        new = self._merged
        self._merged = []
        return new

    @property
    def merged(self) -> List[Tuple[int, int, ProposalValue]]:
        """Every delivery emitted so far, in merge order (drains included).

        With ``retain_history=False`` only the not-yet-drained deliveries
        remain.
        """
        return list(self._merged)

    # ------------------------------------------------------------ inspection
    @property
    def watermark(self) -> Optional[float]:
        """The joint watermark: merged state is complete up to this time.

        ``None`` until every subscribed ring has reported one.
        """
        minimum: Optional[float] = None
        for mark in self._watermarks.values():
            if mark is None:
                return None
            if minimum is None or mark < minimum:
                minimum = mark
        return minimum

    def ring_watermark(self, group_id: int) -> Optional[float]:
        """One ring's completion time (``None`` until it first reports)."""
        return self._watermarks[group_id]

    @property
    def last_barrier(self) -> Optional[float]:
        """The last barrier watermark accepted by :meth:`feed_segments`."""
        return self._last_barrier

    def incarnation(self, group_id: int) -> int:
        """The ring's current producer incarnation (0 until a restart)."""
        return self._incarnations[group_id]

    @property
    def duplicates_dropped(self) -> int:
        """Re-emitted entries deduped so far (restart re-emissions)."""
        return self._duplicates

    @property
    def groups(self) -> List[int]:
        """Subscribed group ids in merge order."""
        return sorted(self._watermarks)

    @property
    def delivered_count(self) -> int:
        """Application messages delivered so far (skips excluded)."""
        return self._merger.delivered_count

    @property
    def skipped_count(self) -> int:
        """Skip instances consumed so far."""
        return self._merger.skipped_count

    def pending(self, group_id: int) -> int:
        """Instances queued for ``group_id`` not yet consumed by the merge."""
        return self._merger.pending(group_id)


class DeterministicMerger:
    """Round-robin merge over the rings a learner subscribes to.

    Parameters
    ----------
    group_ids:
        The rings/groups this learner subscribes to.  Order does not matter;
        the merge always iterates them in ascending id order as the paper
        prescribes.
    messages_per_round:
        The ``M`` parameter: consensus instances consumed from one ring before
        moving to the next.
    on_deliver:
        Callback ``(group_id, instance, value)`` invoked for every delivered
        application message (skips are consumed silently).  Values packed into
        one instance by coordinator batching are unpacked and delivered
        individually, preserving their order inside the batch.
    """

    def __init__(
        self,
        group_ids: Sequence[int],
        messages_per_round: int = 1,
        on_deliver: Optional[DeliverCallback] = None,
    ) -> None:
        if not group_ids:
            raise ValueError("a merger needs at least one group")
        if messages_per_round < 1:
            raise ValueError("M (messages_per_round) must be >= 1")
        self._groups: List[int] = sorted(set(group_ids))
        self._m = messages_per_round
        self._on_deliver = on_deliver or (lambda *args: None)
        self._queues: Dict[int, Deque[Tuple[int, ProposalValue]]] = {
            g: deque() for g in self._groups
        }
        self._current_index = 0
        self._consumed_in_round = 0
        #: one subscription consumed one instance at a time: every offer is
        #: a whole round, so the round pointer never moves (until `subscribe`)
        self._sole_stream = len(self._groups) == 1 and messages_per_round == 1
        #: a packed instance still has leaves to deliver (no round boundary)
        self._mid_instance = False
        self._delivered = 0
        self._skipped = 0

    # ---------------------------------------------------------------- inputs
    def offer(self, group_id: int, instance: int, value: ProposalValue) -> None:
        """Feed the next ordered instance of ``group_id`` into the merge."""
        queue = self._queues.get(group_id)
        if queue is None:
            raise KeyError(f"not subscribed to group {group_id}")
        if not queue and self._groups[self._current_index] == group_id:
            # Fast path (the only path for a single-ring learner): the offered
            # instance is exactly what the round-robin would consume next, so
            # emit it without bouncing through the deque.  The plain-value
            # emit is inlined; skips and packed values take the shared helper.
            payload = value.payload
            if payload is SKIP:
                self._skipped += 1
            elif isinstance(payload, PackedValues):
                self._emit(group_id, instance, value)
            else:
                self._delivered += 1
                self._on_deliver(group_id, instance, value)
            if self._sole_stream:
                return
            self._consumed_in_round += 1
            if self._consumed_in_round >= self._m:
                self._consumed_in_round = 0
                self._current_index = (self._current_index + 1) % len(self._groups)
                self._advance()
            return
        queue.append((instance, value))
        self._advance()

    def subscribe(self, group_id: int) -> None:
        """Add a subscription (takes effect for subsequent rounds)."""
        if group_id not in self._queues:
            self._queues[group_id] = deque()
            self._groups = sorted(self._queues)
            self._sole_stream = False
            # Restart the round pointer deterministically.
            self._current_index = 0
            self._consumed_in_round = 0

    # -------------------------------------------------------------- merging
    def _advance(self) -> None:
        """Deliver as much as possible while the current ring has input."""
        while True:
            group = self._groups[self._current_index]
            queue = self._queues[group]
            if not queue:
                return
            instance, value = queue.popleft()
            self._emit(group, instance, value)
            self._consumed_in_round += 1
            if self._consumed_in_round >= self._m:
                self._consumed_in_round = 0
                self._current_index = (self._current_index + 1) % len(self._groups)

    def _emit(self, group: int, instance: int, value: ProposalValue) -> None:
        # Runs once per consumed instance: test the payload sentinel directly
        # instead of going through ``is_skip()``.
        payload = value.payload
        if payload is SKIP:
            self._skipped += 1
            return
        on_deliver = self._on_deliver
        if isinstance(payload, PackedValues):
            # Every leaf is delivered under the one instance that ordered it,
            # skips excluded; only a pack of packs needs the shared unpacker.
            # The instance is whole only once its last leaf is out: a replica
            # polling `is_round_boundary` from a leaf's delivery must not cut
            # a checkpoint that covers the instance but not all of it.
            values = payload.values
            last = values[-1] if values else None
            self._mid_instance = True
            for packed in values:
                inner = packed.payload
                if inner is SKIP:
                    self._skipped += 1
                elif isinstance(inner, PackedValues):
                    for leaf in _iter_leaf_values(packed):
                        self._emit(group, instance, leaf)
                else:
                    if packed is last:
                        self._mid_instance = False
                    self._delivered += 1
                    on_deliver(group, instance, packed)
            self._mid_instance = False
            return
        self._delivered += 1
        on_deliver(group, instance, value)

    # ------------------------------------------------------------ inspection
    @property
    def delivered_count(self) -> int:
        """Application messages delivered so far (skips excluded)."""
        return self._delivered

    @property
    def skipped_count(self) -> int:
        """Skip instances consumed so far."""
        return self._skipped

    @property
    def groups(self) -> List[int]:
        """Subscribed group ids in merge order."""
        return list(self._groups)

    @property
    def current_group(self) -> int:
        """The group the merge is currently consuming from."""
        return self._groups[self._current_index]

    def pending(self, group_id: int) -> int:
        """Instances queued for ``group_id`` not yet consumed by the merge."""
        return len(self._queues[group_id])

    def is_round_boundary(self) -> bool:
        """Whether the merge sits exactly at the start of a round.

        Replicas take checkpoints at round boundaries so that the merge
        position after installing a checkpoint is unambiguous (see
        :mod:`repro.recovery.checkpointing`).
        """
        return (
            self._current_index == 0
            and self._consumed_in_round == 0
            and not self._mid_instance
        )

    def fast_forward(self, group_positions: Dict[int, int]) -> None:
        """Reset the merge after a checkpoint install.

        ``group_positions`` maps each group to the highest instance already
        reflected in the installed checkpoint; queued entries at or below that
        position are dropped and the round-robin pointer is reset to the start
        of a round (checkpoints are only taken at round boundaries).
        """
        for group, up_to in group_positions.items():
            if group not in self._queues:
                continue
            queue = self._queues[group]
            while queue and queue[0][0] <= up_to:
                queue.popleft()
        self._current_index = 0
        self._consumed_in_round = 0

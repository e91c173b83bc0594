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
from operator import attrgetter, itemgetter
from typing import (
    Any,
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
    """A ring's stream carried a different value for an instance already merged.

    A restarted learner legitimately re-emits a prefix of its ring's decided
    stream; the shard's :class:`RingSegmentBuffer` drops each re-emitted
    instance whose payload equals the one it shipped, and forwards one that
    differs.  The cursor then meets an instance below the ring's next one and
    raises this, naming the ring and the instance: consensus safety is broken
    somewhere upstream, and the dedup must not paper over it.
    """


@dataclass(slots=True)
class RingSegment:
    """One ring's decision-stream slice, tagged for loss-safe streaming.

    Attributes
    ----------
    start:
        Resume position: how many of the ring's instances were shipped
        before this segment, which is the instance the consumer expects
        next.  Consumers verify it so a segment lost in transport is an
        error, not a silent gap.
    entries:
        The ordered ``(instance, value)`` pairs recorded since the previous
        cut (skips included).  May be empty — an empty segment still tells
        the consumer the ring was covered up to the barrier.
    """

    start: int = 0
    entries: List[Tuple[int, ProposalValue]] = field(default_factory=list)

    def __reduce__(self):
        """Pickle form: the instance column and the value column.

        The instance column is one int, the first instance, when the entries
        are consecutive (learners record every instance in order, so this is
        the common case), and the tuple of instances otherwise.  The value
        column is the tuple of values, so an object the entries share is
        shared on the wire too, and decoded once.
        """
        if not self.entries:
            return _segment_from_columns, (self.start, 0, ())
        instances, values = zip(*self.entries)
        first = instances[0]
        if instances == tuple(range(first, first + len(values))):
            instances = first
        return _segment_from_columns, (self.start, instances, values)


def _segment_from_columns(
    start: int,
    instances: Union[int, Tuple[int, ...]],
    values: Tuple[ProposalValue, ...],
) -> "RingSegment":
    """Rebuild a :class:`RingSegment` from its two wire columns."""
    if type(instances) is int:
        instances = range(instances, instances + len(values))
    entries = list(zip(instances, values))
    return RingSegment(start, entries)


#: What ``feed_segments`` accepts per ring: a tagged segment or a bare
#: entry list (offline replays feed whole streams untagged).
SegmentLike = Union["RingSegment", Iterable[Tuple[int, ProposalValue]]]


def replay_streams(
    streams: Mapping[int, RingStream],
    messages_per_round: int = 1,
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
    merger hands to the application).
    """
    if not streams:
        raise ValueError("replay needs at least one group stream")
    cursor = MergeCursor(sorted(streams), messages_per_round=messages_per_round)
    for group in sorted(streams):
        cursor.feed(group, streams[group])
    return cursor.merged


_entry_value = itemgetter(1)
_value_payload = attrgetter("payload")


class RingSegmentBuffer:
    """Accumulates per-ring ordered instances between barrier cuts.

    The producer side of the streaming merge: installed as a ring-stream tap
    (:meth:`repro.multiring.process.MultiRingProcess.record_ring_segments`),
    it collects every ``(instance, value)`` a ring learner emits — skips
    included — and :meth:`cut` hands over everything recorded since the last
    cut as one :class:`RingSegment` per ring, ready to ship through a
    barrier.  Several processes may share one buffer (their rings are
    disjoint).

    Crash safety lives here because the buffer outlives a crashed learner:
    it sees both an instance's first emission and a restarted learner's
    re-emission of it.  Per ring it keeps the payload of every instance it
    shipped (a skip's is the shared ``SKIP`` sentinel, a pack's the object
    the shard's acceptors already hold), so

    * a segment's ``start`` is the number of instances shipped before it;
    * :meth:`append` drops a re-emitted instance whose payload equals the
      shipped one — the consumer sees each decided instance once — and
      records one that differs, for the consumer's cursor to reject as
      :class:`MergeDivergenceError`;
    * :meth:`mark_down` (the producer crashed) drops the entries recorded
      since the last cut — the restarted learner re-emits them — and keeps
      the rings out of cuts until :meth:`mark_restart`.  Rings marked down
      are *uncovered*: their absence from a cut tells the merge stage not to
      advance their watermark past the barrier.
    """

    __slots__ = ("_shipped", "_entries", "_down")

    def __init__(self) -> None:
        #: Every ring ever subscribed or recorded → the payload of each of
        #: its shipped instances (index = instance).  Covered cuts include
        #: every ring here, even idle ones, so the consumer can advance their
        #: watermarks.
        self._shipped: Dict[int, List[Any]] = {}
        self._entries: Dict[int, List[Tuple[int, ProposalValue]]] = {}
        #: Rings whose producer is crashed — excluded from cuts.
        self._down: Set[int] = set()

    def subscribe(self, ring_ids: Iterable[int]) -> None:
        """Declare rings up-front so idle ones still appear in covered cuts."""
        for ring_id in ring_ids:
            self._shipped.setdefault(ring_id, [])

    def append(self, ring_id: int, instance: int, value: ProposalValue) -> None:
        """Record one ordered instance (the tap callback).

        An instance already shipped is a restarted learner's re-emission: it
        is dropped when it decided the shipped payload and recorded when it
        did not.
        """
        shipped = self._shipped.get(ring_id)
        if shipped is None:
            self._shipped[ring_id] = []
        elif instance < len(shipped) and shipped[instance] == value.payload:
            return
        self._entries.setdefault(ring_id, []).append((instance, value))

    def mark_down(self, ring_ids: Iterable[int]) -> None:
        """The producer of these rings crashed: drop its uncut tail.

        The dropped entries are not lost — the restarted learner re-emits
        them after the shipped prefix — and until :meth:`mark_restart` the
        rings are omitted from cuts, which is how the consumer learns their
        streams are no longer complete up to the barrier.
        """
        for ring_id in ring_ids:
            self._shipped.setdefault(ring_id, [])
            self._down.add(ring_id)
            self._entries.pop(ring_id, None)

    def mark_restart(self, ring_ids: Iterable[int]) -> None:
        """The producer restarted: the rings re-enter cuts immediately.

        The recreated learner re-emits its ring's stream from the first
        instance; :meth:`append` drops the shipped prefix, so the next cut
        resumes where the last covered one ended, even while gap repair is
        still filling the prefix in.
        """
        self._down.difference_update(ring_ids)

    def cut(self) -> Dict[int, RingSegment]:
        """Detach the segments recorded since the last cut.

        Every known ring whose producer is up yields a segment — an empty
        one when the ring was idle, which still advances the consumer-side
        watermark.  Rings marked down are omitted (uncovered).
        """
        segments: Dict[int, RingSegment] = {}
        entries = self._entries
        self._entries = {}
        down = self._down
        for ring_id, shipped in self._shipped.items():
            if ring_id in down:
                continue
            recorded = entries.get(ring_id) or []
            segments[ring_id] = RingSegment(len(shipped), recorded)
            shipped.extend(map(_value_payload, map(_entry_value, recorded)))
        return segments


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

    Each ring's input is one contiguous stream from instance 0: the cursor
    keeps the ring's next instance and checks every segment and entry
    against it (see :meth:`feed`).  Restart re-emissions never reach it —
    the producer's :class:`RingSegmentBuffer` drops them.

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
        #: The instance each ring's stream must continue with.
        self._next: Dict[int, int] = {g: 0 for g in groups}
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
        start: Optional[int] = None,
    ) -> None:
        """Feed one ring's next segment (possibly empty) into the merge.

        ``entries`` must continue the ring's ordered stream exactly where the
        previous segment ended.  ``watermark`` advances the ring's completion
        time — an empty segment with a watermark is how an idle ring reports
        progress; feeding a watermark that moves backwards is an error.

        ``start`` is the resume position a :class:`RingSegment` carries: it
        must equal the ring's next instance, so a segment lost in transport
        surfaces as an error instead of a silent gap.  Each entry must be the
        ring's next instance.  One below it raises
        :class:`MergeDivergenceError` (the producer forwards a re-emitted
        instance only when it decided a different value); one above it — an
        entry reordered or lost — raises ``ValueError``.  Both name the
        ring, the instance and the expected one.
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
        expected = self._next[group_id]
        if start is not None and start != expected:
            raise ValueError(
                f"segment of ring {group_id} resumes at instance {start}, expected "
                f"{expected} — a segment was lost or reordered in transport"
            )
        offer = self._merger.offer
        for instance, value in entries:
            if instance != expected:
                if instance < expected:
                    raise MergeDivergenceError(
                        f"ring {group_id} instance {instance} was re-emitted with a "
                        f"different value ({value.payload!r}) after the merge "
                        f"consumed it: expected instance {expected}"
                    )
                raise ValueError(
                    f"ring {group_id} instance {instance} is out of order: expected "
                    f"instance {expected} (a reordered or lost segment entry)"
                )
            expected += 1
            offer(group_id, instance, value)
        self._next[group_id] = expected

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
        resume position is enforced, see :meth:`feed`) or bare entry
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
                # A ring outside the subscription reads as unmarked, so
                # ``feed`` raises the ``KeyError`` naming it.
                current = self._watermarks.get(group)
                if current is None or watermark > current:
                    self.feed(group, (), watermark)
        for group in sorted(segments):
            segment = segments[group]
            if isinstance(segment, RingSegment):
                self.feed(group, segment.entries, start=segment.start)
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

    @property
    def groups(self) -> List[int]:
        """Subscribed group ids in merge order."""
        return sorted(self._watermarks)


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
                pass  # a skip only moves the round
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
                    continue
                if isinstance(inner, PackedValues):
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

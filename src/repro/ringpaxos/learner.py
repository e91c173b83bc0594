"""Per-ring learner: in-order delivery of decided instances.

A learner in Ring Paxos observes values (from the Phase 2 message circulating
along the ring, or carried by a decision) and decisions, and must hand
instances to the application strictly in instance order with no gaps.  The
:class:`RingLearner` below tracks both and emits ``(instance, value)`` pairs
through a callback as soon as they become contiguously deliverable.

It keeps only what it has not emitted: ``highest_contiguous_decided`` says
which instances are decided and delivered (or being delivered), and
``decided_map`` holds the decisions waiting for an earlier instance — the
out-of-order window, empty in a steady ring.

In Multi-Ring Paxos the callback feeds the deterministic merger
(:mod:`repro.multiring.merge`) instead of the application directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..paxos.messages import ProposalValue

__all__ = ["RingLearner"]

DeliveryCallback = Callable[[int, int, ProposalValue], None]


class RingLearner:
    """Orders decided instances of one ring and emits them contiguously.

    Parameters
    ----------
    ring_id:
        Ring this learner listens to.
    on_ordered:
        Callback ``(ring_id, instance, value)`` invoked in strict instance
        order (skips included — the merger needs them to advance its
        round-robin counters).
    """

    def __init__(self, ring_id: int, on_ordered: DeliveryCallback) -> None:
        self.ring_id = ring_id
        self._on_ordered = on_ordered
        #: one past the highest instance heard of
        self.next_instance = 0
        #: decided ``instance -> value`` not emitted yet
        self.decided_map: Dict[int, ProposalValue] = {}
        #: highest instance such that it and every one before it is decided
        self.highest_contiguous_decided = -1
        self._pending_values: Dict[int, ProposalValue] = {}
        self._undeliv: set = set()
        self._next_to_emit = 0

    # --------------------------------------------------------------- inputs
    def observe_value(self, instance: int, value: ProposalValue) -> None:
        """Remember the value proposed in ``instance`` (from the Phase 2 message)."""
        self._pending_values[instance] = value
        if instance >= self.next_instance:
            self.next_instance = instance + 1

    def observe_decision(self, instance: int, value: Optional[ProposalValue]) -> None:
        """Record that ``instance`` was decided.

        ``value`` may be ``None`` when the decision message did not carry the
        value (the learner then uses the value it observed earlier); a learner
        that knows neither cannot advance and waits for retransmission.
        """
        resolved = value if value is not None else self._pending_values.get(instance)
        if instance >= self.next_instance:
            self.next_instance = instance + 1
        if resolved is None:
            # Keep the decision pending until the value shows up.
            self._undeliv.add(instance)
            return
        decided = self.decided_map
        if instance <= self.highest_contiguous_decided or instance in decided:
            return  # a duplicate: emitted, being emitted, or waiting its turn
        if instance != self._next_to_emit or decided:
            # Out of order, or with later instances already waiting behind
            # it: keep the decision until its turn, emit what became ready.
            decided[instance] = resolved
            while (self.highest_contiguous_decided + 1) in decided:
                self.highest_contiguous_decided += 1
            self._drain()
            return
        # A ring decides in order, so nearly every decision is the one
        # awaited next with nothing waiting behind it: it is emitted without
        # ever being stored.  ``highest_contiguous_decided`` is what marks it
        # decided while its callback runs.
        self.highest_contiguous_decided = instance
        self._on_ordered(self.ring_id, instance, resolved)
        self._pending_values.pop(instance, None)
        if self._next_to_emit == instance:  # unless the callback fast-forwarded
            self._next_to_emit = instance + 1
        if decided:
            self._drain()  # whatever the callback decided re-entrantly

    def supply_missing_value(self, instance: int, value: ProposalValue) -> None:
        """Provide the value of an instance whose decision arrived first."""
        self._pending_values[instance] = value
        if instance in self._undeliv:
            self._undeliv.discard(instance)
            self.observe_decision(instance, value)

    # -------------------------------------------------------------- recovery
    def fast_forward(self, to_instance: int) -> None:
        """Skip delivery of everything up to ``to_instance`` (checkpoint install).

        Used by a recovering replica after installing a checkpoint whose
        identifier covers instances up to ``to_instance`` for this ring:
        they count as decided and delivered from here on.
        """
        decided = self.decided_map
        if to_instance + 1 > self._next_to_emit:
            self._next_to_emit = to_instance + 1
            self.next_instance = max(self.next_instance, to_instance + 1)
        for stale in [i for i in decided if i <= to_instance]:
            del decided[stale]
        if to_instance > self.highest_contiguous_decided:
            self.highest_contiguous_decided = to_instance
            while (self.highest_contiguous_decided + 1) in decided:
                self.highest_contiguous_decided += 1
        for stale in [i for i in self._pending_values if i <= to_instance]:
            del self._pending_values[stale]
        self._undeliv = {i for i in self._undeliv if i > to_instance}

    def inject_decided(self, instance: int, value: ProposalValue) -> None:
        """Feed a decision obtained through retransmission (recovery path)."""
        self.observe_value(instance, value)
        self.observe_decision(instance, value)

    # --------------------------------------------------------------- output
    def _drain(self) -> None:
        # A decision leaves the map when its turn comes, *before* its
        # callback: the map holds only what has not been emitted, and a
        # callback that re-enters the learner finds nothing to emit twice.
        # ``next_to_emit`` moves after the callback, and only if the callback
        # did not fast-forward past it.
        pop = self.decided_map.pop
        pending = self._pending_values
        on_ordered = self._on_ordered
        ring_id = self.ring_id
        while True:
            nxt = self._next_to_emit
            value = pop(nxt, None)
            if value is None:
                return
            on_ordered(ring_id, nxt, value)
            pending.pop(nxt, None)
            if self._next_to_emit == nxt:
                self._next_to_emit = nxt + 1

    # ------------------------------------------------------------ inspection
    @property
    def next_to_emit(self) -> int:
        """The next instance number that will be emitted."""
        return self._next_to_emit

    def is_decided(self, instance: int) -> bool:
        """Whether the decision of ``instance`` is known (delivered or waiting)."""
        return instance <= self.highest_contiguous_decided or instance in self.decided_map

    @property
    def highest_decided(self) -> int:
        """Highest instance this learner knows to be decided."""
        return max(self.highest_contiguous_decided, max(self._undeliv, default=-1))

    def gaps(self) -> List[int]:
        """Instances the waiting decisions are held up by (no decision yet)."""
        waiting = self.decided_map
        first = self.highest_contiguous_decided + 1
        return [i for i in range(first, max(waiting, default=first)) if i not in waiting]

"""Per-ring learner: in-order delivery of decided instances.

A learner in Ring Paxos observes values (from the Phase 2 message circulating
along the ring, or carried by a decision) and decisions, and must hand
instances to the application strictly in instance order with no gaps.  The
:class:`RingLearner` below tracks both and emits ``(instance, value)`` pairs
through a callback as soon as they become contiguously deliverable.

In Multi-Ring Paxos the callback feeds the deterministic merger
(:mod:`repro.multiring.merge`) instead of the application directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..paxos.instance import InstanceLedger
from ..paxos.messages import SKIP, ProposalValue

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
    batch_drain:
        Drain contiguously decided runs in one pass: the run is probed out
        of the decided map first, then emitted in a tight loop (one map
        lookup per instance instead of one per loop head plus the per-item
        bookkeeping re-reads).  Emission order and all per-item state
        transitions are identical to the default drain; the flag keeps the
        default path byte-for-byte what the frozen differentials anchored.
    """

    def __init__(
        self, ring_id: int, on_ordered: DeliveryCallback, batch_drain: bool = False
    ) -> None:
        self.ring_id = ring_id
        self._on_ordered = on_ordered
        self._batch_drain = batch_drain
        self._ledger = InstanceLedger()
        self._pending_values: Dict[int, ProposalValue] = {}
        self._undeliv: set = set()
        self._next_to_emit = 0
        self._emitted = 0
        self._skipped = 0

    # --------------------------------------------------------------- inputs
    def observe_value(self, instance: int, value: ProposalValue) -> None:
        """Remember the value proposed in ``instance`` (from the Phase 2 message)."""
        self._pending_values[instance] = value
        # InstanceLedger.observe_instance, in this frame (once per hop).
        ledger = self._ledger
        if instance >= ledger.next_instance:
            ledger.next_instance = instance + 1

    def observe_decision(self, instance: int, value: Optional[ProposalValue]) -> None:
        """Record that ``instance`` was decided.

        ``value`` may be ``None`` when the decision message did not carry the
        value (the learner then uses the value it observed earlier); a learner
        that knows neither cannot advance and waits for retransmission.
        """
        resolved = value if value is not None else self._pending_values.get(instance)
        if resolved is None:
            # Keep the decision pending until the value shows up.
            self._ledger.observe_instance(instance)
            self._undeliv.add(instance)
            return
        ledger = self._ledger
        decided = ledger.decided_map
        if instance != self._next_to_emit or instance in decided or (instance + 1) in decided:
            # Out of order, duplicate, or with later instances already
            # waiting behind it: the general decide + drain.
            if ledger.decide(instance, resolved):
                self._drain()
            return
        # A ring decides in order, so nearly every decision is the one
        # awaited next with nothing behind it.  Both drains would emit exactly
        # this instance and then probe for the next, so do
        # InstanceLedger.decide and that one iteration in this frame: same
        # transitions in the same order around the callback, which therefore
        # observes the same ``next_to_emit`` and ledger as it did.
        decided[instance] = resolved
        if instance >= ledger.next_instance:
            ledger.next_instance = instance + 1
        while (ledger.highest_contiguous_decided + 1) in decided:
            ledger.highest_contiguous_decided += 1
        self._emitted += 1
        if resolved.payload is SKIP:
            self._skipped += 1
        self._on_ordered(self.ring_id, instance, resolved)
        self._pending_values.pop(instance, None)
        self._next_to_emit = instance + 1
        if (instance + 1) in decided:
            self._drain()  # whatever the callback decided re-entrantly

    def supply_missing_value(self, instance: int, value: ProposalValue) -> None:
        """Provide the value of an instance whose decision arrived first."""
        self._pending_values[instance] = value
        if instance in self._undeliv:
            self._undeliv.discard(instance)
            if self._ledger.decide(instance, value):
                self._drain()

    # -------------------------------------------------------------- recovery
    def fast_forward(self, to_instance: int) -> None:
        """Skip delivery of everything up to ``to_instance`` (checkpoint install).

        Used by a recovering replica after installing a checkpoint whose
        identifier covers instances up to ``to_instance`` for this ring.
        """
        if to_instance + 1 > self._next_to_emit:
            self._next_to_emit = to_instance + 1
            self._ledger.observe_instance(to_instance)
        self._ledger.forget_up_to(to_instance)
        stale = [i for i in self._pending_values if i <= to_instance]
        for i in stale:
            del self._pending_values[i]
        self._undeliv = {i for i in self._undeliv if i > to_instance}

    def inject_decided(self, instance: int, value: ProposalValue) -> None:
        """Feed a decision obtained through retransmission (recovery path)."""
        self.observe_value(instance, value)
        self.observe_decision(instance, value)

    # --------------------------------------------------------------- output
    def _drain(self) -> None:
        # Inner loop of every delivery: read the ledger's decision map
        # directly and hoist the loop-invariant lookups.  State attributes are
        # still updated per iteration so reentrant callbacks (checkpointing
        # reads ``next_to_emit``) observe the same intermediate states as
        # before.
        decided = self._ledger.decided_map
        pending = self._pending_values
        on_ordered = self._on_ordered
        ring_id = self.ring_id
        if self._batch_drain:
            # Batch drain: collect the whole contiguously decided run, then
            # emit it without re-probing the decided map per iteration.  The
            # outer loop catches instances decided while the run was being
            # emitted (e.g. by a reentrant retransmission injection).
            get = decided.get
            while True:
                nxt = self._next_to_emit
                run: List[ProposalValue] = []
                value = get(nxt)
                while value is not None:
                    run.append(value)
                    value = get(nxt + len(run))
                if not run:
                    return
                for value in run:
                    self._emitted += 1
                    if value.payload is SKIP:
                        self._skipped += 1
                    on_ordered(ring_id, nxt, value)
                    pending.pop(nxt, None)
                    nxt += 1
                    self._next_to_emit = nxt
            return
        while True:
            nxt = self._next_to_emit
            value = decided.get(nxt)
            if value is None:
                return
            self._emitted += 1
            if value.payload is SKIP:
                self._skipped += 1
            on_ordered(ring_id, nxt, value)
            pending.pop(nxt, None)
            self._next_to_emit = nxt + 1

    # ------------------------------------------------------------ inspection
    @property
    def next_to_emit(self) -> int:
        """The next instance number that will be emitted."""
        return self._next_to_emit

    @property
    def emitted_count(self) -> int:
        """Total instances emitted (including skips)."""
        return self._emitted

    @property
    def skipped_count(self) -> int:
        """How many of the emitted instances were skips."""
        return self._skipped

    @property
    def highest_decided(self) -> int:
        """Highest instance this learner knows to be decided."""
        return max(
            self._ledger.highest_contiguous_decided,
            max(self._undeliv, default=-1),
        )

    def gaps(self) -> List[int]:
        """Instances below the highest decided one still missing a decision."""
        return self._ledger.undecided_below(self._ledger.highest_contiguous_decided + 1)

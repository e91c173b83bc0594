"""Single-instance Paxos state machines.

:class:`AcceptorInstance` is the acceptor-side state of one consensus
instance (promised ballot, accepted ballot, accepted value) with the two
classic transition rules; :class:`InstanceLedger` tracks the proposer /
coordinator view of a window of instances — which are open, which are decided
— and hands out fresh instance numbers.

Keeping these rules in plain, simulation-free classes makes the safety
properties easy to unit- and property-test (see ``tests/paxos``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .messages import ProposalValue

__all__ = ["AcceptorInstance", "Promise", "Accepted", "InstanceLedger"]


@dataclass(slots=True)
class Promise:
    """Result of processing a Phase 1A message for one instance."""

    granted: bool
    ballot: int
    accepted_ballot: int = -1
    accepted_value: Optional[ProposalValue] = None


@dataclass(slots=True)
class Accepted:
    """Result of processing a Phase 2A message for one instance.

    ``slots=True``: one is allocated per vote on the ring hot path.
    """

    accepted: bool
    ballot: int


class AcceptorInstance:
    """Acceptor-side state for one consensus instance.

    Implements the two Paxos acceptor rules:

    * a Phase 1A with ballot ``b`` is promised iff ``b`` is greater than any
      ballot already promised or voted in;
    * a Phase 2A with ballot ``b`` is accepted iff ``b`` is at least the
      highest promised ballot.
    """

    __slots__ = ("instance", "promised_ballot", "accepted_ballot", "accepted_value")

    def __init__(self, instance: int) -> None:
        self.instance = instance
        self.promised_ballot = -1
        self.accepted_ballot = -1
        self.accepted_value: Optional[ProposalValue] = None

    @classmethod
    def voted(cls, instance: int, ballot: int, value: ProposalValue) -> "AcceptorInstance":
        """The state :meth:`receive_phase2a` leaves behind when it accepts.

        For callers that already know the vote passes — a first message for
        the instance with ``ballot`` at or above whatever was promised — so
        the ring hop builds the state once instead of creating an empty
        instance, mutating it and allocating an :class:`Accepted` to say so.
        """
        self = cls.__new__(cls)
        self.instance = instance
        self.promised_ballot = self.accepted_ballot = ballot
        self.accepted_value = value
        return self

    # ---------------------------------------------------------------- phase 1
    def receive_phase1a(self, ballot: int) -> Promise:
        """Process a prepare request for ``ballot``."""
        if ballot > self.promised_ballot and ballot > self.accepted_ballot:
            self.promised_ballot = ballot
            return Promise(
                granted=True,
                ballot=ballot,
                accepted_ballot=self.accepted_ballot,
                accepted_value=self.accepted_value,
            )
        return Promise(granted=False, ballot=max(self.promised_ballot, self.accepted_ballot))

    # ---------------------------------------------------------------- phase 2
    def receive_phase2a(self, ballot: int, value: ProposalValue) -> Accepted:
        """Process an accept request for ``ballot`` carrying ``value``."""
        if ballot >= self.promised_ballot:
            self.promised_ballot = ballot
            self.accepted_ballot = ballot
            self.accepted_value = value
            return Accepted(accepted=True, ballot=ballot)
        return Accepted(accepted=False, ballot=self.promised_ballot)

    @property
    def has_accepted(self) -> bool:
        """Whether the acceptor voted in this instance."""
        return self.accepted_ballot >= 0


class InstanceLedger:
    """Coordinator/learner bookkeeping over a sequence of consensus instances.

    Tracks the next unused instance number, which instances are decided and
    with what value, and the highest contiguously decided instance (the point
    up to which a learner can deliver in order).

    The three fields are plain attributes: readers pay no property frame, and
    the one per-message consumer — :class:`~repro.ringpaxos.learner.RingLearner`,
    which owns its ledger — applies :meth:`observe_instance` / :meth:`decide`'s
    transitions to them in its own frame.  Everyone else goes through the
    methods.
    """

    def __init__(self) -> None:
        #: the next instance number that would be allocated
        self.next_instance = 0
        #: decided ``instance -> value``
        self.decided_map: Dict[int, ProposalValue] = {}
        #: highest instance such that all instances up to it are decided
        self.highest_contiguous_decided = -1

    # ------------------------------------------------------------ allocation
    def allocate(self) -> int:
        """Reserve and return the next instance number."""
        instance = self.next_instance
        self.next_instance += 1
        return instance

    def allocate_many(self, count: int) -> List[int]:
        """Reserve ``count`` consecutive instance numbers."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.allocate() for _ in range(count)]

    def observe_instance(self, instance: int) -> None:
        """Make sure future allocations are beyond ``instance``.

        Used by acceptors/learners that see instances created by the
        coordinator, and by a new coordinator taking over.
        """
        if instance >= self.next_instance:
            self.next_instance = instance + 1

    # -------------------------------------------------------------- decisions
    def decide(self, instance: int, value: ProposalValue) -> bool:
        """Record a decision; returns ``False`` if it was already known."""
        decided = self.decided_map
        if instance in decided:
            return False
        decided[instance] = value
        # Inlined observe_instance(): decide runs once per learned instance.
        if instance >= self.next_instance:
            self.next_instance = instance + 1
        while (self.highest_contiguous_decided + 1) in decided:
            self.highest_contiguous_decided += 1
        return True

    def is_decided(self, instance: int) -> bool:
        """Whether a decision is known for ``instance``."""
        return instance in self.decided_map

    def decision(self, instance: int) -> Optional[ProposalValue]:
        """The decided value of ``instance`` (``None`` when unknown)."""
        return self.decided_map.get(instance)

    @property
    def decided_count(self) -> int:
        """Number of decided instances currently retained."""
        return len(self.decided_map)

    def undecided_below(self, instance: int) -> List[int]:
        """Instance numbers smaller than ``instance`` that lack a decision."""
        return [i for i in range(0, instance) if i not in self.decided_map]

    def decisions_in_order(self) -> Iterator[Tuple[int, ProposalValue]]:
        """Iterate decided ``(instance, value)`` pairs in instance order."""
        for instance in sorted(self.decided_map):
            yield instance, self.decided_map[instance]

    def forget_up_to(self, instance: int) -> int:
        """Drop retained decisions up to ``instance`` (learner-side trimming)."""
        to_drop = [i for i in self.decided_map if i <= instance]
        for i in to_drop:
            del self.decided_map[i]
        return len(to_drop)

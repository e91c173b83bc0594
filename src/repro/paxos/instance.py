"""Single-instance Paxos state machines.

:class:`AcceptorInstance` is the acceptor-side state of one consensus
instance (promised ballot, accepted ballot, accepted value) with the two
classic transition rules; :class:`InstanceLedger` hands out the coordinator's
fresh instance numbers.

Keeping these rules in plain, simulation-free classes makes the safety
properties easy to unit- and property-test (see ``tests/paxos``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    """The coordinator's instance numbering: hands out fresh instance numbers.

    (Which instances are decided is the learner's business:
    :class:`~repro.ringpaxos.learner.RingLearner` keeps that state itself.)
    """

    def __init__(self) -> None:
        #: the next instance number that would be allocated
        self.next_instance = 0

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

        Used when the coordinator sees instances it did not create, and by a
        new coordinator taking over.
        """
        if instance >= self.next_instance:
            self.next_instance = instance + 1

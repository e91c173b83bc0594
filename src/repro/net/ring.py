"""Unidirectional ring overlay.

Ring Paxos arranges all processes of one group — proposers, acceptors and
learners — in a single logical ring (Figure 2a of the paper).  Messages only
travel from a process to its successor; values and decisions stop circulating
once every process has received them.

:class:`RingOverlay` is a pure data structure: it knows the member order, the
successor of each member, the elected coordinator (one of the acceptors) and
the position of the "last acceptor", the process that converts a Phase 2B
message carrying a majority of votes into a Decision.  It is deliberately
independent of the simulation so that it can be unit-tested and property-
tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

__all__ = ["RingMember", "RingOverlay"]


@dataclass(frozen=True)
class RingMember:
    """One process in the ring and the roles it plays.

    A process may combine roles — the paper's baseline experiment uses three
    processes that are all proposers, acceptors and learners at once.
    """

    name: str
    proposer: bool = False
    acceptor: bool = False
    learner: bool = False

    def __post_init__(self) -> None:
        if not (self.proposer or self.acceptor or self.learner):
            raise ValueError(f"member {self.name} must hold at least one role")


class RingOverlay:
    """Ordered ring of members with coordinator election.

    Parameters
    ----------
    ring_id:
        Identifier of the ring (also the multicast group id in Multi-Ring
        Paxos; the deterministic merge iterates rings by this id).
    members:
        Ring members in ring order.  The order is what defines each member's
        successor.
    coordinator:
        Name of the coordinator; defaults to the first acceptor.  The
        coordinator must be an acceptor (it proposes Phase 2A messages).
    """

    def __init__(
        self,
        ring_id: int,
        members: Sequence[RingMember],
        coordinator: Optional[str] = None,
        epoch: int = 0,
    ) -> None:
        if not members:
            raise ValueError("a ring needs at least one member")
        if epoch < 0:
            raise ValueError("epoch cannot be negative")
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise ValueError("duplicate member names in ring")
        acceptors = [m.name for m in members if m.acceptor]
        if not acceptors:
            raise ValueError("a ring needs at least one acceptor")

        self.ring_id = ring_id
        #: Configuration epoch: incremented on every reconfiguration, used by
        #: a newly elected coordinator to pick a higher ballot.
        self.epoch = epoch
        self._members: List[RingMember] = list(members)
        self._by_name: Dict[str, RingMember] = {m.name: m for m in members}
        self._order: List[str] = names
        self.coordinator = coordinator or acceptors[0]
        if self.coordinator not in self._by_name or not self._by_name[self.coordinator].acceptor:
            raise ValueError("coordinator must be an acceptor member of the ring")
        # Ring geometry is immutable (reconfiguration builds a new overlay),
        # so hop lookups — the per-message inner loop of ring circulation —
        # are precomputed once instead of scanning the member list.
        n = len(names)
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self._succ: Dict[str, str] = {name: names[(i + 1) % n] for i, name in enumerate(names)}
        self._acceptors: List[str] = acceptors
        self._learners: List[str] = [m.name for m in members if m.learner]
        self._majority: int = len(acceptors) // 2 + 1
        self._last_acceptor_cache: Dict[str, str] = {}

    # --------------------------------------------------------------- queries
    @property
    def members(self) -> List[RingMember]:
        """Members in ring order."""
        return list(self._members)

    @property
    def acceptors(self) -> List[str]:
        """Acceptor names in ring order."""
        return list(self._acceptors)

    @property
    def learners(self) -> List[str]:
        """Learner names in ring order."""
        return list(self._learners)

    def member(self, name: str) -> RingMember:
        """Look up a member by name."""
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -------------------------------------------------------------- topology
    def successor(self, name: str) -> str:
        """The next process after ``name`` on the ring."""
        return self._succ[name]

    def walk_from(self, start: str) -> List[str]:
        """Members visited walking one full turn starting after ``start``."""
        idx = self._index[start]
        n = len(self._order)
        return [self._order[(idx + k) % n] for k in range(1, n + 1)]

    # -------------------------------------------------------------- quorums
    def majority(self) -> int:
        """Size of a majority quorum of acceptors."""
        return self._majority

    def last_acceptor_for(self, coordinator: Optional[str] = None) -> str:
        """The acceptor that collects the final vote.

        Walking the ring from the coordinator (excluding the coordinator
        itself), the last acceptor encountered is the one able to observe a
        majority of Phase 2B votes and replace the message with a Decision
        (Section 4).  When the coordinator is the only acceptor it is its own
        last acceptor.
        """
        start = coordinator or self.coordinator
        cached = self._last_acceptor_cache.get(start)
        if cached is not None:
            return cached
        last = start
        for name in self.walk_from(start)[:-1]:
            if self._by_name[name].acceptor:
                last = name
        self._last_acceptor_cache[start] = last
        return last

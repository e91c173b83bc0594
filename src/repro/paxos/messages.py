"""Paxos and Ring Paxos protocol messages.

Ring Paxos (Section 4, Figure 2b) uses an optimised Paxos in which Phase 1 is
pre-executed for a collection of instances and Phase 2A and Phase 2B travel as
a single combined message along the ring, accumulating votes.  The message
types below cover both the classic phases (used during pre-execution and
coordinator change) and the ring-specific combined message, the decision, the
retransmission protocol used during recovery and the trim protocol.

All messages carry ``ring_id`` so that a process subscribed to several rings
can dispatch them to the right per-ring handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..net.message import Message

__all__ = [
    "ProposalValue",
    "SKIP",
    "ValueForward",
    "Phase1A",
    "Phase1B",
    "Phase2Ring",
    "Decision",
    "RetransmitRequest",
    "RetransmitReply",
    "TrimQuery",
    "TrimReport",
    "TrimCommand",
    "CheckpointRequest",
    "CheckpointReply",
]


class _Skip:
    """Sentinel proposed by coordinators to skip an instance (rate leveling)."""

    __slots__ = ()

    def __reduce__(self):
        # Skips are compared by identity (``payload is SKIP``) throughout the
        # ordering layer; pickling by reference keeps that true for recorded
        # decision streams shipped across worker-process boundaries by the
        # sharded merge stage.
        return "SKIP"


#: The null value proposed in skipped consensus instances (Section 4).
SKIP = _Skip()


@dataclass(slots=True)
class ProposalValue:
    """An application value wrapped for ordering.

    Attributes
    ----------
    payload:
        Opaque application command (e.g. a key-value operation).
    size_bytes:
        Application payload size, used for wire and disk accounting.
    proposer:
        Name of the proposing process (to route the delivery notification).
    proposal_id:
        Unique id assigned by the proposer, used to correlate deliveries.
    created_at:
        Simulation time at which the value was proposed (latency metric).
    """

    payload: Any
    size_bytes: int
    proposer: str = ""
    proposal_id: int = 0
    created_at: float = 0.0

    def is_skip(self) -> bool:
        """Whether this value is the skip sentinel."""
        return self.payload is SKIP


@dataclass(slots=True)
class ValueForward(Message):
    """A client value travelling along the ring towards the coordinator."""

    ring_id: int = 0
    value: Optional[ProposalValue] = None

    def __post_init__(self) -> None:
        if self.value is not None:
            self.payload_bytes = self.value.size_bytes
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES


@dataclass(slots=True)
class Phase1A(Message):
    """Classic Paxos Phase 1A, pre-executed for a range of instances."""

    ring_id: int = 0
    ballot: int = 0
    from_instance: int = 0
    to_instance: int = 0


@dataclass(slots=True)
class Phase1B(Message):
    """Classic Paxos Phase 1B: a promise for a range of instances.

    ``accepted`` carries ``(instance, ballot, value)`` triples for instances
    in the range for which the acceptor had already voted.
    """

    ring_id: int = 0
    ballot: int = 0
    from_instance: int = 0
    to_instance: int = 0
    acceptor: str = ""
    accepted: List[Tuple[int, int, Any]] = field(default_factory=list)


@dataclass(slots=True)
class Phase2Ring(Message):
    """The combined Phase 2A/2B message circulating along the ring.

    The coordinator creates it with its own vote; every acceptor that agrees
    adds its vote before forwarding.  ``votes`` is the list of acceptors that
    voted so far.  ``origin`` is the process that created the message, used to
    stop the circulation after one full turn.
    """

    ring_id: int = 0
    instance: int = 0
    ballot: int = 0
    value: Optional[ProposalValue] = None
    votes: Tuple[str, ...] = ()
    origin: str = ""
    #: number of consecutive instances covered (``> 1`` only for skip ranges)
    span: int = 1

    def __post_init__(self) -> None:
        if self.value is not None and self.value.payload is not SKIP:
            self.payload_bytes = self.value.size_bytes
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES

    @property
    def last_instance(self) -> int:
        """Highest instance covered by this message."""
        return self.instance + self.span - 1

    def add_vote(self, acceptor: str) -> None:
        """Append ``acceptor``'s vote in place.

        The circulating Phase 2 message is uniquely owned by the hop that is
        processing it (point-to-point delivery; the previous hop dropped its
        reference when it forwarded), so the ring reuses the *same* object and
        mutates the vote tuple instead of cloning one message per hop.
        """
        self.votes += (acceptor,)


@dataclass(slots=True)
class Decision(Message):
    """A learned decision circulating along the ring.

    The value itself is not repeated when it already circulated in the
    Phase 2 message (the paper sends value and decision separately); carrying
    ``value`` here keeps the learner logic simple while only charging the
    wire for the small decision record (``payload_bytes`` stays 0 unless the
    decision needs to carry the value, e.g. towards a recovering process).
    """

    ring_id: int = 0
    instance: int = 0
    value: Optional[ProposalValue] = None
    origin: str = ""
    carries_value: bool = False
    #: number of consecutive instances covered (``> 1`` only for skip ranges)
    span: int = 1

    def __post_init__(self) -> None:
        if self.carries_value and self.value is not None and self.value.payload is not SKIP:
            self.payload_bytes = self.value.size_bytes
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES

    @property
    def last_instance(self) -> int:
        """Highest instance covered by this decision."""
        return self.instance + self.span - 1

    def strip_value(self) -> None:
        """Stop charging the wire for the value, in place.

        Used by the coordinator when the decision completes its first ring
        turn: downstream hops already saw the value in the Phase 2 message, so
        only the small decision record travels on.  In-place is safe for the
        same sole-ownership reason as :meth:`Phase2Ring.add_vote`.
        """
        self.carries_value = False
        self.payload_bytes = 0
        self.size_bytes = self.OVERHEAD_BYTES


@dataclass(slots=True)
class RetransmitRequest(Message):
    """Recovering replica asking an acceptor for decided instances.

    ``reason`` distinguishes who consumes the eventual reply: ``"recovery"``
    requests are answered to the replica's :class:`~repro.recovery.recover.RecoveryManager`,
    ``"gap-repair"`` requests come from a live learner plugging a delivery gap
    (messages lost to a partition) and are consumed by the ring node itself.
    """

    ring_id: int = 0
    from_instance: int = 0
    to_instance: int = 0
    requester: str = ""
    reason: str = "recovery"


@dataclass(slots=True)
class RetransmitReply(Message):
    """Acceptor reply carrying ``(instance, value)`` pairs."""

    ring_id: int = 0
    decided: List[Tuple[int, ProposalValue]] = field(default_factory=list)
    trimmed_up_to: int = -1
    reason: str = "recovery"

    def __post_init__(self) -> None:
        self.payload_bytes = sum(
            v.size_bytes for _, v in self.decided if v is not None and not v.is_skip()
        )
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES


@dataclass(slots=True)
class TrimQuery(Message):
    """Coordinator asking replicas for their highest safe instance (Section 5.2)."""

    ring_id: int = 0


@dataclass(slots=True)
class TrimReport(Message):
    """Replica reply: its checkpointed instance ``k[x]_p`` for the ring."""

    ring_id: int = 0
    replica: str = ""
    safe_instance: int = -1


@dataclass(slots=True)
class TrimCommand(Message):
    """Coordinator instructing acceptors to trim their log up to ``K[x]_T``."""

    ring_id: int = 0
    up_to_instance: int = -1


@dataclass(slots=True)
class CheckpointRequest(Message):
    """Recovering replica asking a peer for its most recent checkpoint.

    The first round of requests only asks for checkpoint identifiers; once the
    recovering replica picked the most up-to-date checkpoint in its recovery
    quorum it asks that peer again with ``include_state=True`` to download the
    snapshot itself.
    """

    requester: str = ""
    include_state: bool = False


@dataclass(slots=True)
class CheckpointReply(Message):
    """Peer reply carrying its checkpoint identifier and, on demand, the state."""

    replica: str = ""
    checkpoint_id: Any = None
    state: Any = None
    includes_state: bool = False
    state_size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.includes_state:
            self.payload_bytes = self.state_size_bytes
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES

"""Coordinator logic for one ring.

The coordinator is the acceptor elected to drive consensus for its ring.  It

* pre-executes Phase 1 for a large window of instances at startup, so that in
  the steady state a value only needs the Phase 2 trip around the ring;
* assigns instance numbers to incoming values and emits the combined
  Phase 2A/2B message with its own vote;
* optionally groups several small values into one instance (instance
  batching), mirroring the packet grouping of the Java implementation;
* performs rate leveling for Multi-Ring Paxos: every ``Δ`` interval it
  proposes enough skip instances to keep the ring advancing at the maximum
  expected rate ``λ`` (Section 4), so that learners merging several rings are
  not held back by a slow ring;
* drives log trimming (Section 5.2): it periodically queries replicas for
  their safe instance, waits for a trim quorum and instructs acceptors to
  trim.

The coordinator state is deliberately independent of the actor/network layer:
the hosting :class:`~repro.ringpaxos.node.RingNode` supplies callbacks for
sending messages, which keeps this class unit-testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Tuple

from ..paxos.instance import InstanceLedger
from ..paxos.messages import SKIP, ProposalValue

if TYPE_CHECKING:  # repro.core imports the ring layer: no import at run time
    from ..core.config import MultiRingConfig

__all__ = ["CoordinatorState", "PackedValues"]


@dataclass(slots=True)
class PackedValues:
    """Payload wrapper used when several values share one consensus instance.

    Every constituent :class:`ProposalValue` is kept intact — its
    ``(proposer, proposal_id, created_at)`` metadata survives packing, so
    client ack matching and per-command latency accounting keep working after
    the merge layer unpacks the instance (see :mod:`repro.core.packing` for
    the shared recursive unpacker).
    """

    values: List[ProposalValue] = field(default_factory=list)


class CoordinatorState:
    """Per-ring coordinator bookkeeping.

    Parameters
    ----------
    ring_id:
        Ring this coordinator drives.
    ballot:
        The ballot it owns after Phase 1 pre-execution.
    config:
        The deployment's :class:`~repro.core.config.MultiRingConfig`.  Its
        ``batching_enabled`` decides whether values share instances (of up
        to :attr:`BATCH_MAX_BYTES` payload); its ``rate_interval`` (Δ) and
        ``max_rate`` (λ) decide rate leveling: at each Δ the ring is
        expected to have proposed ``round(λ·Δ)`` instances (45 for
        ``MultiRingConfig()``, 40 for
        :func:`~repro.core.config.global_config`), and the difference is
        proposed as skips.  ``rate_interval=None`` proposes none.
    """

    #: Number of instances for which Phase 1 is pre-executed in one go.
    PHASE1_WINDOW = 1 << 20
    #: Maximum bytes of payload packed into one instance when batching: the
    #: prototype's 32 KB client batches (Sections 7.2 and 7.3).
    BATCH_MAX_BYTES = 32 * 1024

    def __init__(
        self,
        ring_id: int,
        ballot: int,
        config: MultiRingConfig,
    ) -> None:
        self.ring_id = ring_id
        self.ballot = ballot
        self.config = config
        self.ledger = InstanceLedger()
        self.phase1_ready = False
        self._phase1_promises: Dict[str, bool] = {}
        self._pending: Deque[ProposalValue] = deque()
        #: running ``sum(v.size_bytes for v in _pending)``, kept in lockstep
        self._pending_bytes = 0
        self._proposed_in_interval = 0

    # ----------------------------------------------------------------- phase 1
    def phase1_window(self) -> Tuple[int, int]:
        """The instance range to pre-execute Phase 1 for."""
        return (0, self.PHASE1_WINDOW)

    def record_promise(self, acceptor: str, quorum: int) -> bool:
        """Register a Phase 1B promise; returns ``True`` when quorum is reached."""
        self._phase1_promises[acceptor] = True
        if not self.phase1_ready and len(self._phase1_promises) >= quorum:
            self.phase1_ready = True
        return self.phase1_ready

    # ---------------------------------------------------------------- values
    def enqueue(self, value: ProposalValue) -> None:
        """Queue a value for ordering (buffered until Phase 1 completes)."""
        self._pending.append(value)
        self._pending_bytes += value.size_bytes

    def has_pending(self) -> bool:
        """Whether values are waiting to be assigned instances."""
        return bool(self._pending)

    def next_assignments(self, force: bool = True) -> List[Tuple[int, ProposalValue]]:
        """Assign instances to pending values according to the batch policy.

        Returns ``(instance, value)`` pairs ready to be sent in Phase 2
        messages.  Without batching each pending value gets its own instance;
        with batching, values are packed into instances of up to
        :attr:`BATCH_MAX_BYTES` payload.  A packed instance keeps every
        constituent value intact inside :class:`PackedValues` — all
        ``(proposer, proposal_id, created_at)`` triples survive (the wrapping
        value's own header fields mirror the first constituent, but
        consumers must use the shared unpacker
        (:func:`repro.core.packing.iter_values`), never the wrapper's header,
        to match acks).

        ``force=False`` implements the hold side of size-or-timeout assembly:
        only batches that already fill :attr:`BATCH_MAX_BYTES` are emitted,
        and a trailing partial batch stays queued for the caller's delay
        timer to flush later (with ``force=True``).  Without batching
        ``force`` is ignored — every value drains immediately.
        """
        if not self.phase1_ready:
            return []
        assignments: List[Tuple[int, ProposalValue]] = []
        pending = self._pending
        if not self.config.batching_enabled:
            while pending:
                assignments.append((self.ledger.allocate(), pending.popleft()))
            self._pending_bytes = 0
        else:
            max_bytes = self.BATCH_MAX_BYTES
            # The next greedy group is partial (takes all that is queued yet
            # stays under ``max_bytes``) exactly when the running total is
            # below ``max_bytes``: hold it for the delay trigger in O(1).
            while pending and (force or self._pending_bytes >= max_bytes):
                group: List[ProposalValue] = []
                size = 0
                while pending and (
                    size + pending[0].size_bytes <= max_bytes or not group
                ):
                    value = pending.popleft()
                    group.append(value)
                    size += value.size_bytes
                self._pending_bytes -= size
                if len(group) == 1:
                    packed = group[0]
                else:
                    # The pack lives as long as its instance: give it an
                    # exact-size copy of the append-grown group.
                    packed = ProposalValue(
                        payload=PackedValues(values=group[:]),
                        size_bytes=size,
                        proposer=group[0].proposer,
                        proposal_id=group[0].proposal_id,
                        created_at=min(v.created_at for v in group),
                    )
                assignments.append((self.ledger.allocate(), packed))
        self._proposed_in_interval += len(assignments)
        return assignments

    # ----------------------------------------------------------- rate leveling
    def skips_for_interval(self) -> int:
        """How many instances to skip at the end of the current Δ interval.

        Implements the paper's rate-leveling rule: compare the number of
        instances proposed during the interval against the maximum expected
        rate and top up with skips.  Resets the interval counter.
        """
        config = self.config
        proposed = self._proposed_in_interval
        self._proposed_in_interval = 0
        if config.rate_interval is None:
            return 0
        return max(0, int(round(config.max_rate * config.rate_interval)) - proposed)

    def allocate_skips(self, count: int) -> Tuple[int, int]:
        """Allocate ``count`` consecutive instances for a skip range.

        Returns the inclusive ``(first, last)`` instance range.
        """
        if count <= 0:
            raise ValueError("skip count must be positive")
        first = self.ledger.allocate()
        last = first
        for _ in range(count - 1):
            last = self.ledger.allocate()
        return first, last

    @staticmethod
    def skip_value() -> ProposalValue:
        """The null value proposed in skipped instances."""
        return ProposalValue(payload=SKIP, size_bytes=0, proposer="", proposal_id=0)

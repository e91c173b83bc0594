"""Acceptor-side state: instances, durable log and retransmission service.

An acceptor in Ring Paxos must log its Phase 1B / Phase 2B responses to stable
storage before replying (Section 5.1) so that it can serve retransmission
requests from recovering replicas.  :class:`AcceptorState` bundles:

* the per-instance Paxos state — promised ballot, accepted ballot, accepted
  value — as columns of one :class:`~repro.storage.slab.InstanceSlab`,
* the write-ahead log charging the configured storage mode,
* the decided values used to serve retransmissions,
* trimming, driven by the coordinator's :class:`~repro.paxos.messages.TrimCommand`.

Log and decisions are views of the same slab: a steady-state hop appends one
entry to each column and sets flags, and trimming deletes one prefix.
:class:`~repro.paxos.instance.AcceptorInstance` objects exist only while a vote
that is not the steady-state case runs the plain acceptor rules.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim.actor import Environment
from ..sim.disk import Disk, StorageMode
from ..storage.slab import DECIDED, VOTED
from ..storage.wal import WriteAheadLog
from .instance import Accepted, AcceptorInstance
from .messages import SKIP, ProposalValue

__all__ = ["AcceptorState"]


class AcceptorState:
    """All consensus state owned by one acceptor for one ring."""

    def __init__(
        self,
        env: Environment,
        name: str,
        ring_id: int,
        storage_mode: StorageMode = StorageMode.IN_MEMORY,
        disk: Optional[Disk] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.ring_id = ring_id
        self.storage_mode = storage_mode
        self.log = WriteAheadLog(
            env, mode=storage_mode, name=f"{name}.r{ring_id}.wal", disk=disk
        )
        #: one slab under the votes, the log and the decisions
        self._slab = self.log.slab
        #: ballot promised for every instance not yet individually touched —
        #: this is how Phase 1 pre-execution over a huge window (2^20
        #: instances, Section 4) is represented without materialising
        #: per-instance state.
        self._range_promised = -1
        #: what every accepted vote at the current ballot returns — one
        #: shared, read-only object per coordinator reign, not one per hop
        self._accepted = Accepted(accepted=True, ballot=-1)

    # -------------------------------------------------------------- instances
    def _vote(self, instance: int, ballot: int, value: ProposalValue) -> Accepted:
        """Run the plain acceptor rule on the instance's state and store it back."""
        state = AcceptorInstance(instance)
        held = self._slab.vote(instance)
        if held is None:
            state.promised_ballot = self._range_promised
        else:
            state.promised_ballot, state.accepted_ballot, state.accepted_value = held
        result = state.receive_phase2a(ballot, value)
        self._slab.set_vote(
            instance, state.promised_ballot, state.accepted_ballot, state.accepted_value
        )
        return result

    def promised_ballot(self, instance: int) -> int:
        """Highest ballot promised for ``instance`` (-1 when untouched)."""
        held = self._slab.vote(instance)
        return held[0] if held else self._range_promised

    # ---------------------------------------------------------------- phase 1
    def receive_phase1a(self, from_instance: int, to_instance: int, ballot: int) -> bool:
        """Pre-execute Phase 1 for a window of instances.

        The promise covers the whole window at once (the coordinator
        pre-executes Phase 1 for 2^20 instances, so per-instance bookkeeping
        would be prohibitive); instances that already hold individual state
        are promoted individually.  Returns whether the promise was granted.
        """
        if ballot <= self._range_promised:
            return False
        self._range_promised = ballot
        self._slab.promise(from_instance, to_instance, ballot)
        return True

    # ---------------------------------------------------------------- phase 2
    def receive_phase2(
        self,
        instance: int,
        ballot: int,
        value: ProposalValue,
        on_durable: Optional[Callable[..., None]] = None,
        on_durable_args: tuple = (),
    ) -> Accepted:
        """Vote on ``value`` for ``instance`` and log the vote.

        The durable-write callback ``on_durable(*on_durable_args)`` fires when
        the vote is on stable storage; with synchronous storage the caller
        must defer forwarding its Phase 2B until then (this is what puts the
        device on the critical path).  Passing the arguments separately lets
        the per-hop ring path reuse one bound method instead of closing over
        the message.  The returned object is read-only: accepted votes at one
        ballot all return the same instance.
        """
        slab = self._slab
        if instance == slab.next and ballot >= self._range_promised:
            # Every vote of a steady-state ring: the instance right after the
            # last one held, and a ballot the range promise admits.  The
            # acceptor rule accepts, so append the voted state as such (same
            # fields as creating the instance at the range promise and
            # running receive_phase2a).
            slab.values.append(value)
            slab.ballots.append(ballot)
            slab.flags.append(VOTED)
            slab.next = instance + 1
            result = self._accepted
            if result.ballot != ballot:
                result = self._accepted = Accepted(accepted=True, ballot=ballot)
            logged = value.payload is not SKIP
            if logged:
                slab.unlogged = instance  # what the log is handed next
        elif instance < slab.base:
            # The instance was already trimmed; it is necessarily decided, so
            # refuse the vote — recovering replicas must use checkpoints.
            return Accepted(accepted=False, ballot=ballot)
        else:
            result = self._vote(instance, ballot, value)
            logged = result.accepted and value.payload is not SKIP
        if logged:
            self.log.append(
                instance,
                ballot,
                value,
                value.size_bytes,
                on_durable,
                on_durable_args,
            )
        elif on_durable is not None:
            # Skip votes carry no application data, so they never sit on the
            # synchronous-durability critical path.
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return result

    def receive_phase2_range(
        self,
        from_instance: int,
        to_instance: int,
        ballot: int,
        value: ProposalValue,
        on_durable: Optional[Callable[..., None]] = None,
        on_durable_args: tuple = (),
    ) -> bool:
        """Vote on a contiguous range of instances sharing one value.

        Used for skip ranges (rate leveling): the coordinator proposes one
        message that skips many instances, and the acceptor logs a single
        small record for the whole range.  Returns ``True`` when every
        instance in the range was accepted.
        """
        slab = self._slab
        all_accepted = from_instance >= slab.base
        first = max(from_instance, slab.base)
        span = to_instance + 1 - first
        if first == slab.next and ballot >= self._range_promised and span > 0:
            # A fresh range right after the last instance held (every skip
            # range of a steady ring): the rule accepts each, as above.
            slab.values.extend([value] * span)
            slab.ballots.extend([ballot] * span)
            slab.flags.extend(bytes([VOTED]) * span)
            slab.next = to_instance + 1
        else:
            for instance in range(first, to_instance + 1):
                all_accepted = self._vote(instance, ballot, value).accepted and all_accepted
        if all_accepted and not value.is_skip():
            self.log.append(
                instance=to_instance,
                ballot=ballot,
                value=value,
                size_bytes=value.size_bytes,
                on_durable=on_durable,
                on_durable_args=on_durable_args,
            )
        elif on_durable is not None:
            # Skip ranges (rate leveling) never wait for the device: they
            # carry no application payload that could be lost.
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return all_accepted

    def accepted_value(self, instance: int) -> Optional[ProposalValue]:
        """Value this acceptor voted for in ``instance`` (``None`` if none)."""
        slab = self._slab
        index = instance - slab.base
        if index >= 0:
            try:
                return slab.values[index]
            except IndexError:
                pass  # past the columns: never voted for
        return None

    def accepted_in_range(self, from_instance: int, to_instance: int) -> List[Tuple[int, int, ProposalValue]]:
        """``(instance, ballot, value)`` triples this acceptor voted for in the range.

        Reported back in Phase 1B so that a new coordinator learns which
        instances were already used and does not reuse their numbers.
        """
        return self._slab.votes_between(from_instance, to_instance)

    # --------------------------------------------------------------- decisions
    def record_decision(self, instance: int, value: ProposalValue) -> None:
        """Remember a decided value so it can be retransmitted later."""
        slab = self._slab
        index = instance - slab.base
        if index < 0:
            return
        flags = slab.flags
        if index < len(flags) and slab.values[index] is value:
            flags[index] |= DECIDED  # the decision is the vote held: one flag
            if slab.decisions:
                slab.decisions.pop(instance, None)
        else:
            slab.attach(instance, DECIDED, value, shared=False)

    def is_decided(self, instance: int) -> bool:
        """Whether this acceptor knows the decision of ``instance``."""
        return self._slab.has(instance, DECIDED)

    def decided_between(self, from_instance: int, to_instance: int) -> List[Tuple[int, ProposalValue]]:
        """Decided ``(instance, value)`` pairs in the closed range requested.

        Used to serve :class:`~repro.paxos.messages.RetransmitRequest`s from
        recovering replicas; instances already trimmed are not returned.
        """
        return self._slab.decided(from_instance, to_instance)

    def decided_from(self, from_instance: int) -> List[Tuple[int, ProposalValue]]:
        """Every decided ``(instance, value)`` at or after ``from_instance``.

        Unlike :meth:`decided_between` this does not need an upper bound, so a
        recovering replica that does not know the current highest instance can
        simply ask for "everything newer than my checkpoint".
        """
        return self._slab.decided(from_instance)

    @property
    def highest_decided(self) -> int:
        """Highest instance this acceptor saw a decision for (-1 when none)."""
        return self._slab.highest(DECIDED)

    @property
    def highest_voted(self) -> int:
        """Highest instance this acceptor holds a vote for (-1 when none).

        Unlike the log's highest instance this includes skip votes, which are
        never logged.
        """
        return self._slab.highest(VOTED)

    # ------------------------------------------------------------------- trim
    def trim(self, up_to_instance: int) -> int:
        """Discard state for all instances up to ``up_to_instance``."""
        if up_to_instance < self._slab.base:
            return 0
        return self._slab.trim(up_to_instance)

    @property
    def trimmed_up_to(self) -> int:
        """Highest instance removed by trimming (-1 when never trimmed)."""
        return self._slab.base - 1

    # ------------------------------------------------------------------ crash
    def crash(self) -> None:
        """Lose volatile state; the WAL keeps whatever its mode guarantees."""
        self.log.crash()
        self._slab.forget_votes_and_decisions()

    def recover_from_log(self) -> int:
        """Rebuild accepted-value state from the durable log after a crash.

        Returns the number of instances restored.  Only votes, not decisions,
        are recoverable this way — decisions are re-learned from the ring or
        not needed because the instance was trimmed.
        """
        restored = 0
        for instance in self.log.instances():
            record = self.log.get(instance)
            self._slab.set_vote(instance, record.ballot, record.ballot, record.value)
            restored += 1
        return restored

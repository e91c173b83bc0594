"""Per-ring protocol engine hosted by a process.

A process that participates in a ring — whatever combination of proposer,
acceptor and learner roles it plays — owns one :class:`RingNode` per ring.
The node implements the Ring Paxos message flow of Section 4:

1. a proposed value is forwarded hop by hop along the ring until it reaches
   the coordinator;
2. the coordinator assigns it a consensus instance and emits a combined
   Phase 2A/2B message containing its own vote;
3. every acceptor on the way adds its vote (logging it to stable storage
   first, synchronously or asynchronously depending on the configured storage
   mode) and forwards the message to its successor; non-acceptors just
   forward;
4. the *last* acceptor in the ring (walking from the coordinator) observes a
   majority of votes and replaces the Phase 2 message with a Decision, which
   keeps circulating so every process receives it; the decision carries the
   value only on the stretch of the ring that has not seen the Phase 2
   message yet, so the value crosses each link exactly once;
5. learners deliver the value once they have both the value and its decision,
   in instance order.

The node additionally implements rate leveling (skip instances), the
acceptor-side retransmission service and the coordinator-driven log trimming
used by recovery (Section 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..net.ring import RingOverlay
from ..paxos.acceptor import AcceptorState
from ..paxos.messages import (
    Decision,
    Phase1A,
    Phase1B,
    Phase2Ring,
    ProposalValue,
    RetransmitReply,
    RetransmitRequest,
    TrimCommand,
    TrimQuery,
    TrimReport,
    ValueForward,
)
from ..recovery.trim import compute_trim_point, trim_quorum_size
from ..sim.cpu import CpuCostModel
from ..sim.disk import Disk
from .coordinator import CoordinatorState
from .learner import RingLearner

if TYPE_CHECKING:  # the process and core layers import this one: no import at run time
    from ..core.config import MultiRingConfig
    from ..multiring.process import MultiRingProcess

#: ``RetransmitRequest.reason`` used by the learner-side gap repair; replies
#: with this reason are consumed by the ring node, not the recovery manager.
GAP_REPAIR = "gap-repair"

#: CPU cost charged per ring message, the same for every node.
CPU_MODEL = CpuCostModel()

__all__ = ["RingNode"]


class RingNode:
    """Protocol state of one process within one ring.

    ``config`` is the deployment's :class:`~repro.core.config.MultiRingConfig`
    (shared by every member of the ring): the node reads its storage mode,
    batching, Δ/λ and timer intervals directly.
    """

    def __init__(
        self,
        host: MultiRingProcess,
        overlay: RingOverlay,
        config: MultiRingConfig,
        on_deliver: Optional[Callable[[int, int, ProposalValue], None]] = None,
        disk: Optional[Disk] = None,
    ) -> None:
        if host.name not in overlay:
            raise ValueError(f"{host.name} is not a member of ring {overlay.ring_id}")
        self.host = host
        self.overlay = overlay
        self.config = config
        self._cpu_model = CPU_MODEL
        member = overlay.member(host.name)
        self.is_proposer = member.proposer
        self.is_acceptor = member.acceptor
        self.is_learner = member.learner
        self._refresh_ring_geometry()

        self.acceptor: Optional[AcceptorState] = None
        if self.is_acceptor:
            self.acceptor = AcceptorState(
                host.env,
                host.name,
                overlay.ring_id,
                storage_mode=config.storage_mode,
                disk=disk,
            )

        self.learner: Optional[RingLearner] = None
        if self.is_learner:
            self.learner = RingLearner(overlay.ring_id, on_deliver or (lambda *a: None))

        self.coordinator: Optional[CoordinatorState] = None
        self._trim_reports: Dict[str, int] = {}
        if self.is_coordinator:
            self.coordinator = CoordinatorState(overlay.ring_id, 1, config)

        self._started = False
        self._proposal_seq = 0
        #: gap repair: in-order position at the previous probe, and a rotation
        #: counter so successive probes try different acceptors (one of them
        #: may have crashed and lost its in-memory decision log)
        self._gap_repair_last_emit = -1
        self._gap_repair_rotation = 0
        #: takeover repair: highest-ballot accepted value per instance
        #: reported in Phase 1B while this node establishes itself as the
        #: ring's new coordinator
        self._takeover_accepted: Dict[int, Tuple[int, ProposalValue]] = {}
        self._takeover_repair_pending = False
        #: hole repair (coordinator side): lowest instance this coordinator
        #: does not know to be decided, and its value at the previous probe
        self._hole_cursor = 0
        self._hole_cursor_prev = -1
        #: bound once: handed to the acceptor as the durability callback on
        #: every vote (avoids a bound-method allocation per message)
        self._after_own_vote_callback = self._after_own_vote
        #: coordinator batch assembly: whether a delay-trigger flush is armed,
        #: and its kernel handle (size-or-timeout batching, see
        #: :meth:`_flush_assignments`)
        self._batch_timer_armed = False
        self._batch_flush_handle = None
        #: per-class dispatch table: ``type(message) -> bound handler``, built
        #: once per node from :data:`HANDLERS`.
        self._handlers: Dict[type, Callable[[str, Any], None]] = {
            cls: getattr(self, name) for cls, name in self.HANDLERS.items()
        }

    def _refresh_ring_geometry(self) -> None:
        """Cache the per-message ring lookups; rerun when the overlay changes.

        ``successor``, ``majority`` and ``last_acceptor`` are consulted on
        every hop of every circulating message, so they are resolved once per
        overlay installation instead of per message.
        """
        overlay = self.overlay
        name = self.host.name
        self._successor = overlay.successor(name)
        self._majority = overlay.majority()
        self._last_acceptor = overlay.last_acceptor_for(overlay.coordinator)
        self._is_last_acceptor = self._last_acceptor == name
        self._is_coordinator = overlay.coordinator == name

    # ------------------------------------------------------------ properties
    @property
    def ring_id(self) -> int:
        """Identifier of the ring this node belongs to."""
        return self.overlay.ring_id

    @property
    def is_coordinator(self) -> bool:
        """Whether this process currently coordinates the ring."""
        return self._is_coordinator

    # ----------------------------------------------------------------- start
    def start(self) -> None:
        """Run startup duties (Phase 1 pre-execution, periodic timers)."""
        if self._started:
            return
        self._started = True
        if self.is_coordinator:
            self._start_coordinating()
        if self.is_learner and self.config.gap_repair_interval is not None:
            self._gap_repair_last_emit = -1
            self.host.set_periodic_timer(self.config.gap_repair_interval, self._gap_repair_tick)

    def _start_coordinating(self) -> None:
        """Pre-execute Phase 1, then register the coordinator's timers.

        Timer registration order is event order: rate leveling, trim, hole
        repair.
        """
        self._start_phase1()
        config = self.config
        if config.rate_interval is not None:
            self.host.set_periodic_timer(config.rate_interval, self._rate_level_tick)
        if config.trim_interval is not None:
            self.host.set_periodic_timer(config.trim_interval, self._trim_tick)
        if config.gap_repair_interval is not None:
            self.host.set_periodic_timer(config.gap_repair_interval, self._hole_repair_tick)

    def _start_phase1(self) -> None:
        assert self.coordinator is not None
        lo, hi = self.coordinator.phase1_window()
        for acceptor in self.overlay.acceptors:
            if acceptor == self.host.name:
                # The coordinator promises to itself immediately.
                self.coordinator.record_promise(acceptor, self.overlay.majority())
                continue
            self.host.send(
                acceptor,
                Phase1A(
                    ring_id=self.ring_id,
                    ballot=self.coordinator.ballot,
                    from_instance=lo,
                    to_instance=hi,
                ),
            )
        # A takeover in a ring whose promise quorum is just this process (all
        # other acceptors crashed) completes Phase 1 without any Phase 1B.
        if self.coordinator.phase1_ready and self._takeover_repair_pending:
            self._takeover_repair()

    # --------------------------------------------------------------- propose
    def propose(self, payload: Any, size_bytes: int, created_at: Optional[float] = None) -> ProposalValue:
        """Multicast ``payload`` to this ring (atomically broadcast within it).

        The value travels along the ring towards the coordinator; the caller
        learns the outcome through its learner's delivery callback.
        """
        if not self.is_proposer:
            raise RuntimeError(f"{self.host.name} is not a proposer in ring {self.ring_id}")
        self._proposal_seq += 1
        host = self.host
        value = ProposalValue(
            payload=payload,
            size_bytes=size_bytes,
            proposer=host.name,
            proposal_id=self._proposal_seq,
            created_at=host.env.simulator._now if created_at is None else created_at,
        )
        if self._is_coordinator:
            self.coordinator.enqueue(value)
            self._flush_assignments()
        else:
            host.send(self._successor, ValueForward(ring_id=self.overlay.ring_id, value=value))
        return value

    # ------------------------------------------------------------- dispatch
    #: Message class → handler method name, one entry per ring message of
    #: :mod:`repro.paxos.messages` (``tests/ringpaxos/test_dispatch.py`` finds
    #: those classes by their ``ring_id`` field and fails on a missing entry).
    #: :meth:`MultiRingProcess.on_message
    #: <repro.multiring.process.MultiRingProcess.on_message>` is the one
    #: selector: it looks up the exact class in the node's bound table and
    #: charges the message's CPU.  Every handler takes ``(sender, message)``
    #: and returns nothing; a message it does not own (a recovery
    #: retransmission) it hands to the host's service layer itself.
    HANDLERS: Dict[type, str] = {
        Phase2Ring: "_handle_phase2",
        Decision: "_handle_decision",
        ValueForward: "_handle_value_forward",
        Phase1A: "_handle_phase1a",
        Phase1B: "_handle_phase1b",
        RetransmitRequest: "_handle_retransmit_request",
        RetransmitReply: "_handle_retransmit_reply",
        TrimQuery: "_handle_trim_query",
        TrimReport: "_handle_trim_report",
        TrimCommand: "_handle_trim_command",
    }

    # ------------------------------------------------------- value forwarding
    def _handle_value_forward(self, sender: str, message: ValueForward) -> None:
        if self._is_coordinator:
            assert message.value is not None
            self.coordinator.enqueue(message.value)
            self._flush_assignments()
        else:
            self.host.send(self._successor, message)

    def _flush_assignments(self, force: Optional[bool] = None) -> None:
        """Assign instances to pending values and emit their Phase 2 messages.

        Size-or-timeout batch assembly: with batching enabled and a positive
        ``max_delay``, only full batches are emitted immediately; a trailing
        partial batch stays pending and a one-shot flush timer drains it
        ``max_delay`` later (so batches actually form under open-loop load
        instead of every enqueue flushing a single-value instance).  Without
        batching — the default — every call drains everything, exactly as
        before.
        """
        assert self.coordinator is not None
        config = self.config
        if force is None:
            force = not (config.batching_enabled and config.batch_max_delay > 0.0)
        for instance, value in self.coordinator.next_assignments(force=force):
            self._emit_phase2(instance, value, span=1)
        if (
            not force
            and not self._batch_timer_armed
            and self.coordinator.has_pending()
            and self.coordinator.phase1_ready
        ):
            self._batch_timer_armed = True
            self._batch_flush_handle = self.host.env.simulator.call_later(
                config.batch_max_delay, self._batch_flush_tick
            )

    def _batch_flush_tick(self) -> None:
        """Delay trigger: drain whatever the size trigger left pending."""
        self._batch_timer_armed = False
        self._batch_flush_handle = None
        if not self.host.alive or not self._started:
            return
        if self.coordinator is None or not self.coordinator.phase1_ready:
            return
        for instance, value in self.coordinator.next_assignments(force=True):
            self._emit_phase2(instance, value, span=1)

    def _emit_phase2(self, instance: int, value: ProposalValue, span: int) -> None:
        """Vote locally (the coordinator is an acceptor) then send Phase 2."""
        assert self.coordinator is not None
        name = self.host.name
        message = Phase2Ring(
            ring_id=self.overlay.ring_id,
            instance=instance,
            ballot=self.coordinator.ballot,
            value=value,
            votes=(name,),
            origin=name,
            span=span,
        )
        if self.is_learner and self.learner is not None:
            for i in range(instance, instance + span):
                self.learner.observe_value(i, value)
        assert self.acceptor is not None

        # The bound method + args tuple replaces a per-vote closure: this runs
        # once per instance on the coordinator and once per hop on acceptors.
        if span == 1:
            self.acceptor.receive_phase2(
                instance,
                message.ballot,
                value,
                on_durable=self._after_own_vote_callback,
                on_durable_args=(message,),
            )
        else:
            self.acceptor.receive_phase2_range(
                instance,
                message.last_instance,
                message.ballot,
                value,
                on_durable=self._after_own_vote_callback,
                on_durable_args=(message,),
            )

    def _after_own_vote(self, message: Phase2Ring) -> None:
        if self._is_last_acceptor and len(message.votes) >= self._majority:
            self._decide(message)
        else:
            # _forward_phase2, in this frame (once per voting hop).
            successor = self._successor
            if successor != message.origin:
                self.host.send(successor, message)

    # ----------------------------------------------------------------- phase 1
    def _handle_phase1a(self, sender: str, message: Phase1A) -> None:
        if not self.is_acceptor or self.acceptor is None:
            return
        granted = self.acceptor.receive_phase1a(
            message.from_instance, message.to_instance, message.ballot
        )
        if not granted:
            return
        self.host.send(
            sender,
            Phase1B(
                ring_id=self.ring_id,
                ballot=message.ballot,
                from_instance=message.from_instance,
                to_instance=message.to_instance,
                acceptor=self.host.name,
                accepted=self.acceptor.accepted_in_range(
                    message.from_instance, message.to_instance
                ),
            ),
        )

    def _handle_phase1b(self, sender: str, message: Phase1B) -> None:
        if not self.is_coordinator or self.coordinator is None:
            return
        # A new coordinator must not reuse instance numbers that already hold
        # accepted values from a previous coordinator's reign.
        for instance, ballot, value in message.accepted:
            self.coordinator.ledger.observe_instance(instance)
            if self._takeover_repair_pending and value is not None:
                best = self._takeover_accepted.get(instance)
                if best is None or ballot > best[0]:
                    self._takeover_accepted[instance] = (ballot, value)
        ready = self.coordinator.record_promise(message.acceptor, self.overlay.majority())
        if ready and self._takeover_repair_pending:
            self._takeover_repair()
        if ready and self.coordinator.has_pending():
            self._flush_assignments()

    def _takeover_repair(self) -> None:
        """Finish instances the failed coordinator left behind (classic Paxos).

        Once a takeover's Phase 1 has a promise quorum, every instance below
        the highest observed one that is not known to be decided falls in one
        of two cases: some quorum acceptor reported an accepted value — that
        value may have been chosen, so it is re-proposed under the new ballot —
        or nobody accepted anything, in which case no value can have been
        chosen (any decision quorum intersects the promise quorum) and the
        hole is filled with a skip so learners can advance past it.
        """
        self._takeover_repair_pending = False
        assert self.coordinator is not None and self.acceptor is not None
        start = self.acceptor.trimmed_up_to + 1
        # This process's own votes may lie above everything its ledger saw: a
        # skip range it voted for is never logged, and a value in it may be
        # chosen already, so the scan must cover it.
        self.coordinator.ledger.observe_instance(self.acceptor.highest_voted)
        next_instance = self.coordinator.ledger.next_instance
        # This process's own votes compete with the Phase 1B reports on equal
        # terms: the value chosen for an instance is the highest-ballot
        # accepted value across the whole promise quorum (classic Paxos) —
        # preferring a reported value regardless of ballot could resurrect a
        # stale proposal over a decided newer one.
        best = dict(self._takeover_accepted)
        if next_instance > start:
            for instance, ballot, value in self.acceptor.accepted_in_range(
                start, next_instance - 1
            ):
                entry = best.get(instance)
                if value is not None and (entry is None or ballot > entry[0]):
                    best[instance] = (ballot, value)
        for instance in range(start, next_instance):
            if self.acceptor.is_decided(instance):
                continue
            entry = best.get(instance)
            value = entry[1] if entry is not None else CoordinatorState.skip_value()
            self._emit_phase2(instance, value, span=1)
        self._takeover_accepted.clear()

    # ----------------------------------------------------------------- phase 2
    def _handle_phase2(self, sender: str, message: Phase2Ring) -> None:
        value = message.value
        single = message.span == 1  # almost every message covers one instance
        if self.is_learner and self.learner is not None and value is not None:
            if single:
                self.learner.observe_value(message.instance, value)
            else:
                for instance in range(message.instance, message.last_instance + 1):
                    self.learner.observe_value(instance, value)

        if self.is_acceptor and self.acceptor is not None and value is not None:
            # Append the vote in place and keep circulating the *same* object:
            # the previous hop dropped its reference when it forwarded, so
            # nothing aliases the message (the network never duplicates a
            # delivery — faults only drop).  This used to clone one message
            # per hop per instance.  Only an accepted vote counts, and adding
            # it after the acceptor ruled is safe: ``on_durable`` is always
            # deferred (a zero-delay post or a disk completion).
            if single:
                accepted = self.acceptor.receive_phase2(
                    message.instance,
                    message.ballot,
                    value,
                    self._after_own_vote_callback,
                    (message,),
                ).accepted
            else:
                accepted = self.acceptor.receive_phase2_range(
                    message.instance,
                    message.last_instance,
                    message.ballot,
                    value,
                    on_durable=self._after_own_vote_callback,
                    on_durable_args=(message,),
                )
            if accepted:
                message.add_vote(self.host.name)
        else:
            self._forward_phase2(message)

    def _forward_phase2(self, message: Phase2Ring) -> None:
        successor = self._successor
        if successor != message.origin:
            self.host.send(successor, message)

    # --------------------------------------------------------------- decision
    def _decide(self, message: Phase2Ring) -> None:
        """Replace a majority-carrying Phase 2 message by a decision."""
        name = self.host.name
        self._handle_decision(
            name,
            Decision(
                ring_id=self.overlay.ring_id,
                instance=message.instance,
                value=message.value,
                origin=name,
                carries_value=True,
                span=message.span,
            ),
        )

    def _handle_decision(self, sender: str, message: Decision) -> None:
        """Learn the decision, then keep it circulating."""
        if message.span == 1:
            # Nearly every decision covers one instance: the body of
            # _learn_decision's loop, without the call and the range.
            instance = message.instance
            value = message.value
            if value is None and self.acceptor is not None:
                value = self.acceptor.accepted_value(instance)
            if self.is_acceptor and self.acceptor is not None and value is not None:
                self.acceptor.record_decision(instance, value)
            if self.is_learner and self.learner is not None:
                self.learner.observe_decision(instance, value)
            if self._is_coordinator and self.coordinator is not None:
                ledger = self.coordinator.ledger
                if instance >= ledger.next_instance:  # never, for its own instances
                    ledger.observe_instance(instance)
        else:
            self._learn_decision(message)
        successor = self._successor
        if successor != message.origin:
            if self._is_coordinator and message.carries_value:
                # Past the coordinator the value has already circulated with
                # the Phase 2 message; stop paying for it on the wire.
                # Stripped in place: every hop before the coordinator already
                # handled the message, so no live reference sees the old size.
                message.strip_value()
            self.host.send(successor, message)

    def _learn_decision(self, message: Decision) -> None:
        acceptor = self.acceptor if self.is_acceptor else None
        learner = self.learner if self.is_learner else None
        last_instance = message.last_instance
        for instance in range(message.instance, last_instance + 1):
            value = message.value
            if value is None and self.acceptor is not None:
                value = self.acceptor.accepted_value(instance)
            if acceptor is not None and value is not None:
                acceptor.record_decision(instance, value)
            if learner is not None:
                learner.observe_decision(instance, value)
        if self._is_coordinator and self.coordinator is not None:
            self.coordinator.ledger.observe_instance(last_instance)

    # ----------------------------------------------------------- rate leveling
    def _rate_level_tick(self) -> None:
        if not self.is_coordinator or self.coordinator is None:
            return
        if not self.coordinator.phase1_ready:
            return
        skips = self.coordinator.skips_for_interval()
        if skips <= 0:
            return
        first, last = self.coordinator.allocate_skips(skips)
        self._emit_phase2(first, CoordinatorState.skip_value(), span=last - first + 1)

    # ------------------------------------------------------------------- trim
    def _trim_tick(self) -> None:
        if not self.is_coordinator:
            return
        self._trim_reports.clear()
        for learner in self.overlay.learners:
            if learner == self.host.name:
                continue
            self.host.send(learner, TrimQuery(ring_id=self.ring_id))

    def _handle_trim_query(self, sender: str, message: TrimQuery) -> None:
        """Report how far the host's checkpoints cover this ring."""
        host = self.host
        host.send(
            sender,
            TrimReport(
                ring_id=message.ring_id,
                replica=host.name,
                safe_instance=host.safe_instance_for(message.ring_id),
            ),
        )

    def _handle_trim_report(self, sender: str, message: TrimReport) -> None:
        if not self.is_coordinator:
            return
        self._trim_reports[message.replica] = message.safe_instance
        safe = compute_trim_point(
            self._trim_reports, trim_quorum_size(len(self.overlay.learners))
        )
        if safe is None:
            return
        for acceptor in self.overlay.acceptors:
            if acceptor == self.host.name and self.acceptor is not None:
                self.acceptor.trim(safe)
                continue
            self.host.send(acceptor, TrimCommand(ring_id=self.ring_id, up_to_instance=safe))
        self._trim_reports.clear()

    def _handle_trim_command(self, sender: str, message: TrimCommand) -> None:
        if self.is_acceptor and self.acceptor is not None:
            self.acceptor.trim(message.up_to_instance)

    # ---------------------------------------------------------- retransmission
    def _handle_retransmit_request(self, sender: str, message: RetransmitRequest) -> None:
        if not self.is_acceptor or self.acceptor is None:
            return
        if message.to_instance < 0:
            decided = self.acceptor.decided_from(message.from_instance)
        else:
            decided = self.acceptor.decided_between(message.from_instance, message.to_instance)
        self.host.send(
            message.requester,
            RetransmitReply(
                ring_id=self.ring_id,
                decided=decided,
                trimmed_up_to=self.acceptor.trimmed_up_to,
                reason=message.reason,
            ),
        )

    # ------------------------------------------------------------- gap repair
    def _gap_repair_tick(self) -> None:
        """Ask an acceptor for missing decisions when delivery has stalled.

        A learner separated from the ring by a partition misses the decisions
        that circulated meanwhile; once healed, nothing would ever close the
        gap (decisions cross each link exactly once).  The probe notices that
        the in-order delivery position has not moved for a whole interval and
        requests everything decided from that position onwards.  When the
        learner is merely caught up the request comes back empty.
        """
        if self.learner is None:
            return
        if getattr(self.host, "_recovering", False):
            # The replica's RecoveryManager owns retransmission traffic while
            # the full recovery protocol runs.
            return
        next_to_emit = self.learner.next_to_emit
        stalled = next_to_emit == self._gap_repair_last_emit
        self._gap_repair_last_emit = next_to_emit
        if not stalled:
            return
        env = self.host.env
        acceptors = [
            a
            for a in self.overlay.acceptors
            if a != self.host.name and (not env.has_actor(a) or env.actor(a).alive)
        ]
        if not acceptors:
            return
        target = acceptors[self._gap_repair_rotation % len(acceptors)]
        self._gap_repair_rotation += 1
        self.host.send(
            target,
            RetransmitRequest(
                ring_id=self.ring_id,
                from_instance=next_to_emit,
                to_instance=-1,
                requester=self.host.name,
                reason=GAP_REPAIR,
            ),
        )

    def _hole_repair_tick(self) -> None:
        """Re-propose instances whose Phase 2 / Decision was lost in flight.

        A partition can swallow a circulating Phase 2 message after the
        coordinator voted for it: the instance stays allocated but never
        decided — a permanent hole no learner can get past, because decisions
        for it do not exist anywhere.  The coordinator is the one process
        that knows such holes exist (its own vote is recorded, the decision
        is not), so it re-emits the instance with the value its acceptor
        accepted — the value it originally proposed — under its own ballot.
        Only runs when the lowest undecided instance has not moved for a full
        interval *and* later instances are decided (a genuine hole, not the
        in-flight tail).
        """
        if not self.is_coordinator or self.coordinator is None or self.acceptor is None:
            return
        if not self.coordinator.phase1_ready:
            return
        acceptor = self.acceptor
        cursor = max(self._hole_cursor, acceptor.trimmed_up_to + 1)
        while acceptor.is_decided(cursor):
            cursor += 1
        stalled = cursor == self._hole_cursor_prev
        self._hole_cursor_prev = cursor
        self._hole_cursor = cursor
        if not stalled:
            return
        highest = acceptor.highest_decided
        if highest <= cursor:
            return
        repaired = 0
        for instance in range(cursor, highest):
            if acceptor.is_decided(instance):
                continue
            value = acceptor.accepted_value(instance)
            if value is None:
                # This coordinator never voted for the instance (state lost
                # in a crash): nothing can have been decided with its ballot,
                # so a skip closes the hole safely.
                value = CoordinatorState.skip_value()
            self._emit_phase2(instance, value, span=1)
            repaired += 1
            if repaired >= 512:
                break  # bound the burst; the next tick continues

    def _handle_retransmit_reply(self, sender: str, message: RetransmitReply) -> None:
        """Feed gap-repair retransmissions to the learner.

        Recovery-reason replies belong to the hosting replica's
        RecoveryManager: they go on to the host's service layer.
        """
        if message.reason != GAP_REPAIR:
            self.host.on_service_message(sender, message)
            return
        if self.learner is not None:
            for instance, value in message.decided:
                if value is not None:
                    self.learner.inject_decided(instance, value)

    # ------------------------------------------------------------------ crash
    def crash(self) -> None:
        """Drop volatile state on a process crash (the WAL keeps its records)."""
        self._started = False
        if self._batch_flush_handle is not None:
            self._batch_flush_handle.cancel()
            self._batch_flush_handle = None
        self._batch_timer_armed = False
        if self.acceptor is not None:
            self.acceptor.crash()

    def recover(self) -> None:
        """Rebuild acceptor state from the durable log after a restart."""
        if self.acceptor is not None:
            self.acceptor.recover_from_log()

    # -------------------------------------------------------- reconfiguration
    def update_overlay(self, overlay: RingOverlay) -> None:
        """Install a new ring configuration (member removed/added or new coordinator).

        If this process becomes the coordinator it creates fresh coordinator
        state with a ballot derived from the configuration epoch (so it is
        higher than any ballot of previous coordinators), pre-executes
        Phase 1 again and starts its periodic duties.
        """
        if self.host.name not in overlay:
            raise ValueError("cannot install an overlay that excludes this process")
        was_coordinator = self.is_coordinator
        self.overlay = overlay
        self._refresh_ring_geometry()
        if self.is_coordinator and (not was_coordinator or self.coordinator is None):
            self._become_coordinator()

    def _become_coordinator(self) -> None:
        assert self.is_acceptor, "only an acceptor can coordinate a ring"
        self.coordinator = CoordinatorState(self.ring_id, self.overlay.epoch + 1, self.config)
        # Taking over mid-stream: repair unfinished instances of the previous
        # coordinator once the new Phase 1 reaches a quorum.
        self._takeover_accepted.clear()
        self._takeover_repair_pending = True
        # Do not reuse instances this process already knows to be in use.
        if self.learner is not None:
            self.coordinator.ledger.observe_instance(self.learner.highest_decided)
        if self.acceptor is not None:
            self.coordinator.ledger.observe_instance(self.acceptor.highest_decided)
            self.coordinator.ledger.observe_instance(self.acceptor.log.highest_instance())
        if self._started:
            self._hole_cursor_prev = -1
            self._start_coordinating()

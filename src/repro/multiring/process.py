"""A process participating in Multi-Ring Paxos.

:class:`MultiRingProcess` is the actor every Multi-Ring Paxos participant
derives from.  It can join any number of rings in any combination of roles;
when it is a learner of several rings it owns a deterministic merger that
interleaves the rings' decided instances into a single delivery sequence
(Section 4).  Subclasses — the dummy-service learner used for the baseline
experiments, the MRP-Store replica, the dLog replica — override
:meth:`on_deliver` to execute delivered commands and
:meth:`on_service_message` to handle their own client protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..net.ring import RingOverlay
from ..paxos.messages import ProposalValue
from ..ringpaxos.node import RingNode
from ..sim.actor import Actor, Environment
from ..sim.disk import Disk
from .merge import DeterministicMerger, RingSegmentBuffer

if TYPE_CHECKING:  # repro.core imports this module: no import at run time
    from ..core.config import MultiRingConfig

__all__ = ["MultiRingProcess"]


class MultiRingProcess(Actor):
    """Actor hosting one :class:`~repro.ringpaxos.node.RingNode` per ring.

    The process takes its deployment from the rings it joins: :attr:`config`
    is the configuration its first :meth:`join_ring` hands it, and the
    merger's ``M`` is that configuration's ``messages_per_round``.
    """

    def __init__(self, env: Environment, name: str, site: str = "dc1") -> None:
        super().__init__(env, name, site)
        #: the deployment's configuration (``None`` until the first ring)
        self.config: Optional[MultiRingConfig] = None
        self._nodes: Dict[int, RingNode] = {}
        self._merger: Optional[DeterministicMerger] = None
        self._delivered_per_group: Dict[int, int] = {}
        self._ring_tap: Optional[Callable[[int, int, ProposalValue], None]] = None
        self._segment_buffers: List[RingSegmentBuffer] = []

    # ----------------------------------------------------------------- rings
    def join_ring(
        self,
        overlay: RingOverlay,
        config: MultiRingConfig,
        disk: Optional[Disk] = None,
    ) -> RingNode:
        """Become a member of ``overlay`` with the roles it assigns to us.

        ``config`` is the ring's deployment configuration (see
        :class:`~repro.ringpaxos.node.RingNode`); the first ring's becomes
        :attr:`config`.
        """
        if overlay.ring_id in self._nodes:
            raise ValueError(f"{self.name} already joined ring {overlay.ring_id}")
        if self.config is None:
            self.config = config
        node = RingNode(
            host=self,
            overlay=overlay,
            config=config,
            on_deliver=self._on_ring_ordered,
            disk=disk,
        )
        self._nodes[overlay.ring_id] = node
        if node.is_learner:
            if self._merger is None:
                self._merger = DeterministicMerger(
                    [overlay.ring_id],
                    messages_per_round=self.config.messages_per_round,
                    on_deliver=self._deliver,
                )
            else:
                self._merger.subscribe(overlay.ring_id)
        self._rewire_ordered_sinks()
        return node

    def node(self, ring_id: int) -> RingNode:
        """The ring node for ``ring_id``."""
        return self._nodes[ring_id]

    def ring_ids(self) -> List[int]:
        """Rings this process participates in (sorted)."""
        return sorted(self._nodes)

    def subscribed_groups(self) -> List[int]:
        """Rings this process learns from (sorted) — its group subscriptions."""
        return sorted(r for r, n in self._nodes.items() if n.is_learner)

    @property
    def merger(self) -> Optional[DeterministicMerger]:
        """The deterministic merger (``None`` for non-learners)."""
        return self._merger

    def _ordered_sink(self) -> Callable[[int, int, ProposalValue], None]:
        """Callback ring learners emit into.

        Without a streaming tap the per-ring ordered stream goes straight to
        the merger — same calls, one frame less per ordered instance.  With a
        tap (sharded streaming) or without a merger the general
        :meth:`_on_ring_ordered` stays in the path.
        """
        if self._ring_tap is None and self._merger is not None:
            return self._merger.offer
        return self._on_ring_ordered

    def _rewire_ordered_sinks(self) -> None:
        sink = self._ordered_sink()
        for node in self._nodes.values():
            if node.learner is not None:
                node.learner._on_ordered = sink

    # ----------------------------------------------------------------- start
    def on_start(self) -> None:
        """Start every ring node (Phase 1 pre-execution, timers)."""
        for node in self._nodes.values():
            node.start()

    # ------------------------------------------------------------- multicast
    def multicast(self, group_id: int, payload: Any, size_bytes: int) -> ProposalValue:
        """Atomically multicast ``payload`` to group ``group_id``.

        The process must be a proposer in the corresponding ring; learners of
        the group deliver the payload through :meth:`on_deliver`.
        """
        if group_id not in self._nodes:
            raise KeyError(f"{self.name} is not a member of ring/group {group_id}")
        return self._nodes[group_id].propose(payload, size_bytes)

    # -------------------------------------------------------------- delivery
    def record_ring_segments(
        self, into: Optional[RingSegmentBuffer] = None
    ) -> RingSegmentBuffer:
        """Install the streaming tap of sharded execution.

        Every per-ring instance a ring learner emits — skips included, before
        the merge — is appended to the returned
        :class:`~repro.multiring.merge.RingSegmentBuffer`; ``buffer.cut()``
        at every barrier yields the decision-stream segments recorded since
        the last cut, ready to ship to a parent-side merge cursor.  The tap
        survives crash/restart: the buffer marks this process's rings down
        and restarted, and the restarted learners keep feeding it (it drops
        what they re-emit of the prefix it already shipped).  ``into``
        lets several processes share one buffer (their rings must be
        disjoint).
        """
        buffer = RingSegmentBuffer() if into is None else into
        buffer.subscribe(self.subscribed_groups())
        self._segment_buffers.append(buffer)
        self._ring_tap = buffer.append
        self._rewire_ordered_sinks()
        return buffer

    def _on_ring_ordered(self, ring_id: int, instance: int, value: ProposalValue) -> None:
        """Ordered per-ring output from a ring learner, fed to the merger."""
        tap = self._ring_tap
        if tap is not None:
            tap(ring_id, instance, value)
        if self._merger is None:
            return
        self._merger.offer(ring_id, instance, value)

    def _deliver(self, group_id: int, instance: int, value: ProposalValue) -> None:
        self._delivered_per_group[group_id] = instance
        self.on_deliver(group_id, instance, value)

    def on_deliver(self, group_id: int, instance: int, value: ProposalValue) -> None:
        """Application delivery hook (override in services)."""

    def delivered_position(self, group_id: int) -> int:
        """Highest instance of ``group_id`` delivered to the application (-1 if none)."""
        return self._delivered_per_group.get(group_id, -1)

    # -------------------------------------------------------------- messages
    def on_message(self, sender: str, message: Any) -> None:
        # The one selector of ring messages, in two dict hits: ring id ->
        # node, exact message class -> bound handler.  A message without a
        # ring, or for a ring this process is not in, is service traffic.
        ring_id = getattr(message, "ring_id", None)
        if ring_id is not None:
            node = self._nodes.get(ring_id)
            if node is not None:
                handler = node._handlers.get(message.__class__)
                if handler is not None:
                    # CpuAccount.charge_message(model, size) for one message,
                    # in this frame: priced on arrival (handlers re-size
                    # messages in place), booked after the handler — the same
                    # terms in the same order, no handler charges its own host.
                    model = node._cpu_model
                    cost = model.per_message + model.per_byte * message.size_bytes
                    handler(sender, message)
                    self.cpu._window_busy += cost
                    return
        self.on_service_message(sender, message)

    def on_service_message(self, sender: str, message: Any) -> None:
        """Hook for non-ring messages (client requests, recovery traffic)."""

    # ------------------------------------------------------------------ trim
    def safe_instance_for(self, group_id: int) -> int:
        """Highest instance of ``group_id`` whose effects are checkpointed.

        The default implementation reports nothing checkpointed (``-1``),
        which keeps acceptors from trimming; replicas with a checkpointer
        override this (see :class:`repro.core.smr.StateMachineReplica`).
        """
        return -1

    # --------------------------------------------------------- crash/restart
    def on_crash(self) -> None:
        subscribed = self.subscribed_groups()
        for buffer in self._segment_buffers:
            buffer.mark_down(subscribed)
        for node in self._nodes.values():
            node.crash()

    def on_restart(self) -> None:
        """Reset volatile ordering state; durable state is recovered elsewhere."""
        subscribed = self.subscribed_groups()
        for buffer in self._segment_buffers:
            buffer.mark_restart(subscribed)
        self._delivered_per_group.clear()
        learner_rings = [r for r, n in self._nodes.items() if n.is_learner]
        if learner_rings:
            self._merger = DeterministicMerger(
                learner_rings,
                messages_per_round=self.config.messages_per_round,
                on_deliver=self._deliver,
            )
        for node in self._nodes.values():
            node.recover()
            if node.is_learner:
                node.learner = type(node.learner)(node.ring_id, self._ordered_sink())
        for node in self._nodes.values():
            node.start()

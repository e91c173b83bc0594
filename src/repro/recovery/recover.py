"""Recovering-replica protocol (Section 5.2).

When a replica resumes after a failure it must rebuild a state consistent
with the replicas that did not crash:

1. it contacts the replicas of its own *partition* (same group subscriptions)
   and waits for a recovery quorum ``Q_R`` of answers, each carrying the
   identifier of the peer's most recent checkpoint;
2. it selects the most up-to-date checkpoint available in ``Q_R`` (``K_R``,
   Predicate 3) and downloads the state from that peer — a bulk transfer that
   costs real bandwidth in the simulation, which is what produces the
   recovery dip of Figure 8;
3. it installs the checkpoint, fast-forwards its ring learners and merge
   position, and asks the acceptors of every subscribed ring to retransmit
   the instances decided after the checkpoint;
4. once every ring's retransmission has been applied the replica is caught up
   and keeps running off the live ring traffic.

Because the trim protocol used the *minimum* over a quorum ``Q_T`` that
intersects ``Q_R`` (Predicate 2), the instances missing from the selected
checkpoint are guaranteed not to have been trimmed (Predicates 4-5).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..paxos.messages import (
    CheckpointReply,
    CheckpointRequest,
    RetransmitReply,
    RetransmitRequest,
)
from ..sim.actor import Actor
from ..storage.checkpoint import CheckpointId

__all__ = ["RecoveryManager", "RecoveryPhase"]


class RecoveryPhase(Enum):
    """Where a recovering replica currently stands."""

    IDLE = "idle"
    COLLECTING_IDS = "collecting-checkpoint-ids"
    FETCHING_STATE = "fetching-state"
    RETRANSMITTING = "retransmitting"
    DONE = "done"


class RecoveryManager:
    """Orchestrates one replica's recovery exchanges.

    A replica owns one manager for its lifetime: :meth:`start` begins an
    exchange, :meth:`stop` abandons it on a crash, and the two ``handle_*``
    methods are the replica's service-plane handlers for the replies (a
    manager that is not waiting for a reply ignores it).

    Parameters
    ----------
    host:
        The replica actor (used to send messages and read the clock).
    install_state:
        Callback ``(state, checkpoint_id)`` installing a downloaded snapshot
        into the service and fast-forwarding the ordering layer.
    inject_decided:
        Callback ``(group_id, instance, value)`` feeding a retransmitted
        decision back into the ordering layer.
    on_complete:
        Called each time an exchange finished.
    """

    def __init__(
        self,
        host: Actor,
        install_state: Callable[[Any, CheckpointId], None],
        inject_decided: Callable[[int, int, Any], None],
        on_complete: Callable[[], None],
    ) -> None:
        self.host = host
        self._install_state = install_state
        self._inject_decided = inject_decided
        self._on_complete = on_complete
        self.phase = RecoveryPhase.IDLE
        self._groups: List[int] = []
        self._peers: List[str] = []
        self._acceptors_by_group: Dict[int, List[str]] = {}
        self._quorum = 1
        self._id_replies: Dict[str, Optional[CheckpointId]] = {}
        self._pending_groups: set = set()

    # ------------------------------------------------------------------ start
    def start(
        self,
        group_ids: List[int],
        partition_peers: List[str],
        acceptors_by_group: Dict[int, List[str]],
    ) -> None:
        """Begin recovery by polling partition peers for their checkpoints.

        ``group_ids`` are the replica's subscriptions, ``partition_peers`` the
        replicas of its partition, ``acceptors_by_group`` the acceptors able
        to retransmit each group's decisions.
        """
        self._groups = sorted(group_ids)
        self._peers = list(partition_peers)
        self._acceptors_by_group = {g: list(a) for g, a in acceptors_by_group.items()}
        partition_size = len(self._peers) + 1
        # ``|Q_R|``: a majority of the partition (peers + self), capped at the
        # number of peers that can actually answer: the recovering replica
        # cannot reply to itself, so a two-replica partition must make
        # progress on the single peer's answer instead of waiting forever for
        # a second one.
        majority = partition_size // 2 + 1
        self._quorum = max(1, min(majority, len(self._peers)))
        self._id_replies.clear()
        self.phase = RecoveryPhase.COLLECTING_IDS
        if not self._peers:
            # Nothing to install; recover purely from the acceptors' logs.
            self._begin_retransmission(from_positions={g: -1 for g in self._groups})
            return
        for peer in self._peers:
            self.host.send(peer, CheckpointRequest(requester=self.host.name))

    def stop(self) -> None:
        """Abandon the running exchange (the replica crashed)."""
        self.phase = RecoveryPhase.IDLE

    # -------------------------------------------------------------- messages
    def handle_checkpoint_reply(self, sender: str, reply: CheckpointReply) -> None:
        """Process a peer's answer (either an id or the full state)."""
        if self.phase is RecoveryPhase.COLLECTING_IDS and not reply.includes_state:
            self._id_replies[reply.replica] = reply.checkpoint_id
            if len(self._id_replies) >= self._quorum:
                self._choose_checkpoint()
        elif self.phase is RecoveryPhase.FETCHING_STATE and reply.includes_state:
            self._install(reply)

    def handle_retransmit_reply(self, sender: str, reply: RetransmitReply) -> None:
        """Apply a batch of retransmitted decisions from an acceptor."""
        if self.phase is not RecoveryPhase.RETRANSMITTING:
            return
        for instance, value in reply.decided:
            self._inject_decided(reply.ring_id, instance, value)
        self._pending_groups.discard(reply.ring_id)
        if not self._pending_groups:
            self._finish()

    # ------------------------------------------------------------- internals
    def _choose_checkpoint(self) -> None:
        best_peer: Optional[str] = None
        best_id: Optional[CheckpointId] = None
        for peer, checkpoint_id in self._id_replies.items():
            if checkpoint_id is None:
                continue
            if best_id is None or self._newer(checkpoint_id, best_id):
                best_peer, best_id = peer, checkpoint_id
        if best_peer is None or best_id is None:
            # No peer has a checkpoint: everything must come from the acceptors.
            self._begin_retransmission(from_positions={g: -1 for g in self._groups})
            return
        self.phase = RecoveryPhase.FETCHING_STATE
        self.host.send(best_peer, CheckpointRequest(requester=self.host.name, include_state=True))

    @staticmethod
    def _newer(a: CheckpointId, b: CheckpointId) -> bool:
        """Whether checkpoint ``a`` is more up to date than ``b``.

        Checkpoints of one partition are totally ordered (Predicate 1), so
        comparing the instance tuples lexicographically by group id is
        sufficient.
        """
        return tuple(i for _, i in a.entries) > tuple(i for _, i in b.entries)

    def _install(self, reply: CheckpointReply) -> None:
        assert reply.checkpoint_id is not None
        self._install_state(reply.state, reply.checkpoint_id)
        positions = {
            g: reply.checkpoint_id.instance_for(g) for g in self._groups
        }
        self._begin_retransmission(from_positions=positions)

    def _begin_retransmission(self, from_positions: Dict[int, int]) -> None:
        self.phase = RecoveryPhase.RETRANSMITTING
        self._pending_groups = set(self._groups)
        for group in self._groups:
            acceptors = [
                a for a in self._acceptors_by_group.get(group, [])
                if not self.host.env.has_actor(a) or self.host.env.actor(a).alive
            ]
            if not acceptors:
                # Nobody can serve this group right now; consider it complete
                # so recovery does not hang (the live stream will fill gaps).
                self._pending_groups.discard(group)
                continue
            self.host.send(
                acceptors[0],
                RetransmitRequest(
                    ring_id=group,
                    from_instance=from_positions.get(group, -1) + 1,
                    to_instance=-1,
                    requester=self.host.name,
                ),
            )
        if not self._pending_groups:
            self._finish()

    def _finish(self) -> None:
        self.phase = RecoveryPhase.DONE
        self._on_complete()

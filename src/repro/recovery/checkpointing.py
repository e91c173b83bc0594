"""Replica checkpointing (Section 5.2).

A Multi-Ring Paxos replica periodically snapshots its service state to stable
storage.  Because the state depends on commands delivered from every group the
replica subscribes to, the checkpoint is identified by a *tuple* of consensus
instances — one entry per group (:class:`repro.storage.checkpoint.CheckpointId`).

Predicate 1 of the paper requires ``x < y  =>  k[x] >= k[y]``: since learners
deliver groups in round-robin order of group id, the snapshot must not reflect
a later instance of a higher-numbered group than of a lower-numbered one.  The
checkpointer guarantees this (and keeps recovery simple) by only materialising
checkpoints at *round boundaries* of the deterministic merge: a checkpoint
request made mid-round is deferred until the merge finishes the round.

The checkpointer also supplies the replica's answer to the coordinator's trim
query — its *safe instance* per group, i.e. the highest instance of that group
already covered by a durable checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..storage.checkpoint import Checkpoint, CheckpointId, CheckpointStore

__all__ = ["ReplicaCheckpointer"]

StateSnapshotFn = Callable[[], Tuple[Any, int]]
RoundBoundaryFn = Callable[[], bool]


class ReplicaCheckpointer:
    """Drives periodic checkpoints of one replica.

    Parameters
    ----------
    store:
        Durable checkpoint store (synchronous device writes, as in §7.2).
    snapshot_fn:
        Returns ``(state, size_bytes)`` — a deep snapshot of the service state.
    group_ids:
        Groups the replica subscribes to (its partition signature).
    at_round_boundary:
        Predicate telling whether the deterministic merge currently sits at a
        round boundary; checkpoints are deferred until it does.
    """

    def __init__(
        self,
        store: CheckpointStore,
        snapshot_fn: StateSnapshotFn,
        group_ids: List[int],
        at_round_boundary: Optional[RoundBoundaryFn] = None,
    ) -> None:
        if not group_ids:
            raise ValueError("a replica must subscribe to at least one group")
        self.store = store
        self._snapshot_fn = snapshot_fn
        self._groups = sorted(group_ids)
        self._at_round_boundary = at_round_boundary or (lambda: True)
        #: group -> highest instance applied (the replica's delivery path
        #: updates it in place, as :meth:`mark_delivered` does)
        self.delivered: Dict[int, int] = {g: -1 for g in self._groups}
        #: a checkpoint was requested mid-round and waits for a boundary
        self.pending_request = False
        self._checkpoints_taken = 0

    # -------------------------------------------------------------- tracking
    def mark_delivered(self, group_id: int, instance: int) -> None:
        """Record that the replica applied ``instance`` of ``group_id``."""
        if group_id not in self.delivered:
            raise KeyError(f"unknown group {group_id}")
        if instance > self.delivered[group_id]:
            self.delivered[group_id] = instance

    # ----------------------------------------------------------- checkpointing
    def request_checkpoint(self) -> bool:
        """Ask for a checkpoint; taken now if at a round boundary, else deferred.

        A deferred request stays :attr:`pending_request` until a request
        finds the merge at a boundary — the replica asks again after every
        delivery while one is pending — and a checkpoint taken satisfies it.
        Returns ``True`` if the checkpoint was taken now.
        """
        if self._at_round_boundary():
            self.pending_request = False
            self._take_checkpoint()
            return True
        self.pending_request = True
        return False

    def _take_checkpoint(self) -> Checkpoint:
        checkpoint_id = CheckpointId.from_mapping(self.delivered)
        state, size = self._snapshot_fn()
        checkpoint = self.store.save(checkpoint_id, state, size)
        self._checkpoints_taken += 1
        return checkpoint

    # ---------------------------------------------------------------- queries
    def safe_instance(self, group_id: int) -> int:
        """Highest instance of ``group_id`` covered by a durable checkpoint.

        This is the value the replica reports to the coordinator's trim query
        (``k[x]_p`` in the paper).  ``-1`` means nothing can be trimmed yet.
        """
        latest = self.store.latest()
        if latest is None:
            return -1
        return latest.checkpoint_id.instance_for(group_id)

    @property
    def checkpoints_taken(self) -> int:
        """Number of checkpoints taken by this replica since it started."""
        return self._checkpoints_taken

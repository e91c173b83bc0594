"""Checkpoint storage for replicas.

Multi-Ring Paxos identifies a replica checkpoint by a *tuple of consensus
instances*, one entry per multicast group the replica subscribes to
(Section 5.2).  :class:`CheckpointId` implements that tuple together with the
partial order used by Predicates 1-5; :class:`CheckpointStore` holds the
snapshots a replica wrote to stable storage and charges the device model for
writing them (the paper writes checkpoints synchronously — Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..sim.actor import Environment
from ..sim.disk import Disk, DiskProfile, SSD_PROFILE

__all__ = ["CheckpointId", "Checkpoint", "CheckpointStore"]


@dataclass(frozen=True)
class CheckpointId:
    """Identifier of a checkpoint: highest applied instance per group.

    The mapping is stored as a sorted tuple of ``(group_id, instance)`` pairs
    so the object is hashable and comparisons are deterministic.
    """

    entries: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[int, int]) -> "CheckpointId":
        """Build an id from ``{group_id: highest_instance}``."""
        return CheckpointId(tuple(sorted(mapping.items())))

    def as_dict(self) -> Dict[int, int]:
        """The identifier as a plain ``{group_id: instance}`` dict."""
        return dict(self.entries)

    def instance_for(self, group_id: int) -> int:
        """Highest instance of ``group_id`` reflected in the checkpoint (-1 if absent)."""
        return self.as_dict().get(group_id, -1)


@dataclass
class Checkpoint:
    """A durable snapshot of a replica's service state."""

    checkpoint_id: CheckpointId
    state: Any
    size_bytes: int
    taken_at: float


class CheckpointStore:
    """Durable store of a replica's checkpoints.

    Parameters
    ----------
    env:
        Simulation environment.
    profile:
        Device profile used for checkpoint writes (defaults to SSD since the
        paper's replicas write checkpoints to local SSDs).
    """

    #: Number of checkpoints retained; older ones are discarded, modelling
    #: bounded local storage.
    KEEP = 3

    def __init__(
        self,
        env: Environment,
        profile: DiskProfile = SSD_PROFILE,
        name: str = "ckpt",
        disk: Optional[Disk] = None,
    ) -> None:
        self.env = env
        self.disk = disk or Disk(env, profile, name=f"{name}.disk")
        self._checkpoints: List[Checkpoint] = []

    # ------------------------------------------------------------------ write
    def save(
        self,
        checkpoint_id: CheckpointId,
        state: Any,
        size_bytes: int,
        on_durable: Optional[Callable[[], None]] = None,
    ) -> Checkpoint:
        """Write a checkpoint synchronously to the device.

        ``on_durable`` fires when the device write completes; the returned
        checkpoint is visible to :meth:`latest` immediately (the in-memory
        structure exists before the write finishes, as in the prototype).
        """
        checkpoint = Checkpoint(
            checkpoint_id=checkpoint_id,
            state=state,
            size_bytes=size_bytes,
            taken_at=self.env.simulator.now,
        )
        self._checkpoints.append(checkpoint)
        if len(self._checkpoints) > self.KEEP:
            self._checkpoints = self._checkpoints[-self.KEEP:]
        self.disk.write(size_bytes, on_complete=on_durable)
        return checkpoint

    # ------------------------------------------------------------------- read
    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint, or ``None`` when none was ever taken."""
        return self._checkpoints[-1] if self._checkpoints else None

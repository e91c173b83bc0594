"""Recovery protocol: checkpointing, quorum-based log trimming, replica recovery."""

from .checkpointing import ReplicaCheckpointer
from .recover import RecoveryManager, RecoveryPhase
from .trim import compute_trim_point, trim_quorum_size

__all__ = [
    "ReplicaCheckpointer",
    "RecoveryManager",
    "RecoveryPhase",
    "compute_trim_point",
    "trim_quorum_size",
]

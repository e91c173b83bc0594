"""Stable-storage substrate: the instance slab, write-ahead logs and checkpoints."""

from .checkpoint import Checkpoint, CheckpointId, CheckpointStore
from .wal import LogRecord, WriteAheadLog

__all__ = [
    "Checkpoint",
    "CheckpointId",
    "CheckpointStore",
    "LogRecord",
    "WriteAheadLog",
]

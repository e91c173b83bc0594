"""Multi-Ring Paxos: atomic multicast from coordinated Ring Paxos instances."""

from .merge import DeterministicMerger, MergeCursor, RingSegmentBuffer, replay_streams
from .process import MultiRingProcess
from .sharding import ring_components

__all__ = [
    "DeterministicMerger",
    "MergeCursor",
    "RingSegmentBuffer",
    "replay_streams",
    "MultiRingProcess",
    "ring_components",
]

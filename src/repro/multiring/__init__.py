"""Multi-Ring Paxos: atomic multicast from coordinated Ring Paxos instances."""

from .merge import DeterministicMerger, MergeCursor, RingSegmentBuffer, replay_streams
from .process import MultiRingProcess
from .ratelevel import GLOBAL_RATE_LEVELER, LOCAL_RATE_LEVELER, RateLeveler
from .sharding import ring_components

__all__ = [
    "DeterministicMerger",
    "MergeCursor",
    "RingSegmentBuffer",
    "replay_streams",
    "MultiRingProcess",
    "GLOBAL_RATE_LEVELER",
    "LOCAL_RATE_LEVELER",
    "RateLeveler",
    "ring_components",
]

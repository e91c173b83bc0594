"""Ring Paxos: atomic broadcast over a TCP ring overlay (one multicast group)."""

from .coordinator import CoordinatorState, PackedValues
from .learner import RingLearner
from .node import RingNode

__all__ = [
    "CoordinatorState",
    "PackedValues",
    "RingLearner",
    "RingNode",
]

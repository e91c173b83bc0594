"""Coordination service (Zookeeper substitute).

The paper delegates ring configuration to Zookeeper (Sections 4 and 7).  It
does not sit on the ordering critical path, so this reproduction keeps a
small in-simulation **ring registry**: which rings exist, their member lists,
coordinator and epoch.  :class:`~repro.core.amcast.AtomicMulticast` writes a
new overlay on every reconfiguration (crash → evict, restart → re-admit) and
every process reads its ring's overlay from here.

The registry is a plain object (not an actor): in the real system every
process holds a Zookeeper session and reads are served locally from the
client cache, so modelling a remote round trip would misrepresent the
original system's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.ring import RingMember, RingOverlay

__all__ = ["CoordinationService", "RingConfig"]


@dataclass
class RingConfig:
    """Configuration of one ring stored in the registry."""

    ring_id: int
    members: List[RingMember] = field(default_factory=list)
    coordinator: Optional[str] = None
    epoch: int = 0

    def overlay(self) -> RingOverlay:
        """Materialise the :class:`RingOverlay` described by this config."""
        return RingOverlay(
            self.ring_id, self.members, coordinator=self.coordinator, epoch=self.epoch
        )


class CoordinationService:
    """Registry of the rings every process reads its overlay from."""

    def __init__(self) -> None:
        self._rings: Dict[int, RingConfig] = {}

    def register_ring(self, overlay: RingOverlay) -> None:
        """Store a ring's membership and coordinator."""
        self._rings[overlay.ring_id] = RingConfig(
            ring_id=overlay.ring_id,
            members=overlay.members,
            coordinator=overlay.coordinator,
            epoch=overlay.epoch,
        )

    def ring(self, ring_id: int) -> RingOverlay:
        """Return the current overlay of ``ring_id``."""
        if ring_id not in self._rings:
            raise KeyError(f"unknown ring: {ring_id}")
        return self._rings[ring_id].overlay()

    def ring_ids(self) -> List[int]:
        """All registered ring ids, sorted (deterministic merge order)."""
        return sorted(self._rings)

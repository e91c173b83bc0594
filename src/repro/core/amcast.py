"""Deployment façade: build and run a Multi-Ring Paxos system.

:class:`AtomicMulticast` wires together everything a deployment needs — the
simulation environment, the network and topology, the ring overlays and the
processes — and exposes the handful of operations services and benchmarks
use:

* :meth:`create_ring` — declare a ring (one multicast group) and enrol its
  member processes with their roles;
* :meth:`start` / :meth:`run` — run the deployment;
* :meth:`remove_from_ring` / :meth:`add_to_ring` — reconfigure a ring when a
  member fails or rejoins (the paper delegates this to Zookeeper).

Example
-------
>>> from repro.core import AtomicMulticast, MultiRingConfig
>>> from repro.multiring import MultiRingProcess
>>> system = AtomicMulticast(seed=1)
>>> nodes = [MultiRingProcess(system.env, f"n{i}") for i in range(3)]
>>> _ = system.create_ring(0, [(n.name, "pal") for n in nodes])
>>> system.start()
>>> delivered = []
>>> nodes[0].on_deliver = lambda g, i, v: delivered.append(v.payload)
>>> _ = nodes[1].multicast(0, payload="hello", size_bytes=100)
>>> _ = system.run(until=1.0)
>>> delivered
['hello']
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..multiring.process import MultiRingProcess
from ..net.ring import RingMember, RingOverlay
from ..sim.actor import Actor, Environment
from ..sim.disk import Disk
from ..sim.network import Network
from ..sim.topology import Topology, single_datacenter
from .config import MultiRingConfig

__all__ = ["AtomicMulticast", "parse_roles"]

#: Member specification accepted by :meth:`AtomicMulticast.create_ring`: either
#: a fully built :class:`RingMember` or ``(process_name, roles)`` where roles
#: is a string containing any of the letters ``p`` (proposer), ``a``
#: (acceptor) and ``l`` (learner).
MemberSpec = Union[RingMember, Tuple[str, str]]


def parse_roles(name: str, roles: str) -> RingMember:
    """Build a :class:`RingMember` from a compact role string.

    >>> parse_roles("n1", "pal")
    RingMember(name='n1', proposer=True, acceptor=True, learner=True)
    """
    roles = roles.lower()
    unknown = set(roles) - {"p", "a", "l"}
    if unknown:
        raise ValueError(f"unknown role letters: {sorted(unknown)}")
    return RingMember(
        name=name,
        proposer="p" in roles,
        acceptor="a" in roles,
        learner="l" in roles,
    )


class AtomicMulticast:
    """A complete Multi-Ring Paxos deployment."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        config: Optional[MultiRingConfig] = None,
        seed: int = 0,
        jitter_fraction: float = 0.05,
    ) -> None:
        """Build an empty deployment.

        ``jitter_fraction`` is forwarded to the :class:`Network`; sharded
        differential tests set it to ``0`` because jitter draws come from one
        shared stream whose order a merged run and a sharded run interleave
        differently.
        """
        self.config = config or MultiRingConfig()
        self.env = Environment(seed=seed)
        self.topology = topology or single_datacenter()
        self.network = Network(self.env, self.topology, jitter_fraction=jitter_fraction)
        #: current overlay of every ring.  This is the paper's Zookeeper
        #: registry: it is off the ordering path and every process reads it
        #: locally, so it is a plain dict.  Overlays are never mutated; a
        #: reconfiguration stores a new one.
        self._rings: Dict[int, RingOverlay] = {}
        self._evicted_members: Dict[str, Dict[int, RingMember]] = {}
        self._started = False

    # --------------------------------------------------------------- processes
    def process(self, name: str) -> Actor:
        """Look up a registered process by name."""
        return self.env.actor(name)

    def processes(self) -> List[Actor]:
        """All registered processes."""
        return self.env.actors()

    # -------------------------------------------------------------------- rings
    def create_ring(
        self,
        ring_id: int,
        members: Sequence[MemberSpec],
        coordinator: Optional[str] = None,
        disks: Optional[Dict[str, Disk]] = None,
    ) -> RingOverlay:
        """Declare a ring and enrol every member process.

        Parameters
        ----------
        ring_id:
            Ring identifier; by convention it is also the multicast group id.
        members:
            Member specifications in ring order (see :data:`MemberSpec`).
        coordinator:
            Coordinator name; defaults to the first acceptor.
        disks:
            Optional per-process device to which that process's acceptor log
            for this ring is pinned (used by the vertical-scalability bench
            where each ring writes to its own disk).
        """
        ring_members = [
            m if isinstance(m, RingMember) else parse_roles(m[0], m[1]) for m in members
        ]
        overlay = RingOverlay(ring_id, ring_members, coordinator=coordinator)
        self._rings[ring_id] = overlay
        for member in ring_members:
            process = self.env.actor(member.name)
            if isinstance(process, MultiRingProcess):
                disk = disks.get(member.name) if disks else None
                process.join_ring(overlay, config=self.config, disk=disk)
        return overlay

    def ring(self, ring_id: int) -> RingOverlay:
        """Current overlay of ``ring_id``."""
        if ring_id not in self._rings:
            raise KeyError(f"unknown ring: {ring_id}")
        return self._rings[ring_id]

    def ring_ids(self) -> List[int]:
        """Every ring's id, sorted."""
        return sorted(self._rings)

    # ---------------------------------------------------------------- running
    def start(self) -> None:
        """Invoke every process's startup hook (Phase 1 pre-execution, timers)."""
        if self._started:
            return
        self._started = True
        for actor in self.env.actors():
            if actor.alive:
                actor.on_start()

    def run(self, until: Optional[float] = None) -> float:
        """Run the deployment until the given simulation time."""
        if not self._started:
            self.start()
        return self.env.run(until=until)

    # --------------------------------------------------------- reconfiguration
    def remove_from_ring(self, ring_id: int, name: str) -> RingOverlay:
        """Exclude a failed process from a ring (Zookeeper would do this).

        The remaining members install the new overlay immediately; the failed
        process keeps its old view and is ignored until re-added.
        """
        current = self.ring(ring_id)
        remaining = [m for m in current.members if m.name != name]
        coordinator = current.coordinator
        if coordinator == name:
            live_acceptors = [m.name for m in remaining if m.acceptor]
            if not live_acceptors:
                raise RuntimeError(f"removing {name} leaves ring {ring_id} without acceptors")
            coordinator = live_acceptors[0]
        overlay = RingOverlay(ring_id, remaining, coordinator=coordinator, epoch=current.epoch + 1)
        self._rings[ring_id] = overlay
        self._install_overlay(overlay)
        return overlay

    def add_to_ring(
        self,
        ring_id: int,
        member: MemberSpec,
        position: Optional[int] = None,
    ) -> RingOverlay:
        """Re-admit a process into a ring after it recovered."""
        new_member = member if isinstance(member, RingMember) else parse_roles(member[0], member[1])
        current = self.ring(ring_id)
        members = [m for m in current.members if m.name != new_member.name]
        if position is None:
            members.append(new_member)
        else:
            members.insert(position, new_member)
        overlay = RingOverlay(
            ring_id, members, coordinator=current.coordinator, epoch=current.epoch + 1
        )
        self._rings[ring_id] = overlay
        self._install_overlay(overlay)
        process = self.env.actor(new_member.name)
        if isinstance(process, MultiRingProcess) and ring_id not in process.ring_ids():
            process.join_ring(overlay, config=self.config)
            if self._started and process.alive:
                process.node(ring_id).start()
        return overlay

    def _install_overlay(self, overlay: RingOverlay) -> None:
        for member in overlay.members:
            if not self.env.has_actor(member.name):
                continue
            process = self.env.actor(member.name)
            if isinstance(process, MultiRingProcess) and overlay.ring_id in process.ring_ids():
                process.node(overlay.ring_id).update_overlay(overlay)

    # ------------------------------------------------------- fault injection
    def crash_process(self, name: str) -> None:
        """Crash a process.

        The failed process is also removed from every ring it was a member
        of — that is what Zookeeper's ephemeral-node expiry does in
        the prototype, and it keeps the ring circulation intact for the
        remaining members.  The original membership is remembered so
        :meth:`restart_process` can re-admit the process with the same roles.
        """
        self.env.actor(name).crash()
        for ring_id in self.ring_ids():
            overlay = self._rings[ring_id]
            if name not in overlay:
                continue
            member = overlay.member(name)
            live_acceptors = [a for a in overlay.acceptors if a != name]
            if member.acceptor and not live_acceptors:
                # Cannot exclude the only acceptor; the ring is stuck anyway.
                continue
            self._evicted_members.setdefault(name, {})[ring_id] = member
            self.remove_from_ring(ring_id, name)

    def restart_process(self, name: str) -> None:
        """Restart a crashed process (its recovery protocol runs automatically).

        Rings the process was evicted from at crash time are re-joined first,
        so the restarted process immediately receives the live stream while
        its recovery protocol fills the gap.
        """
        for ring_id, member in self._evicted_members.pop(name, {}).items():
            self.add_to_ring(ring_id, member)
        self.env.actor(name).restart()

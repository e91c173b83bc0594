"""MRP-Store deployment builder.

Wires a complete MRP-Store service on top of an
:class:`~repro.core.amcast.AtomicMulticast` deployment:

* one ring per partition, with proposer/acceptor front-end processes and
  replica (learner) processes;
* optionally a *global ring* that every replica also subscribes to, which is
  the paper's globally ordered configuration; without it partitions run
  "independent rings" (the cheaper configuration of Figure 4);
* :meth:`MRPStoreService.frontend_map`, the proposer each partition's
  clients address.

The same builder covers the YCSB comparison (Figure 4, three partitions in
one datacenter), the horizontal-scalability experiment (Figure 7, one
partition per EC2 region plus a global ring) and the recovery experiment
(Figure 8, a single partition with three replicas).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.amcast import AtomicMulticast
from ..core.smr import ProposerFrontend
from ..net.ring import RingMember
from .client import MRPStoreCommands
from .partitioning import HashPartitioner, Partitioner
from .replica import MRPStoreReplica
from .store import StoredValue

__all__ = ["MRPStoreService"]


class MRPStoreService:
    """A deployed MRP-Store: partitions, rings, replicas and front-ends."""

    def __init__(
        self,
        system: AtomicMulticast,
        partition_groups: Sequence[int],
        partitioner: Optional[Partitioner] = None,
        acceptors_per_partition: int = 3,
        replicas_per_partition: int = 2,
        site_for_partition: Optional[Dict[int, str]] = None,
        global_ring_id: Optional[int] = None,
    ) -> None:
        if not partition_groups:
            raise ValueError("need at least one partition")
        self.system = system
        self.groups = list(partition_groups)
        self.partitioner = partitioner or HashPartitioner(self.groups)
        self.config = system.config
        self.global_ring_id = global_ring_id
        self.commands = MRPStoreCommands(self.partitioner)
        self.frontends: Dict[int, List[ProposerFrontend]] = {}
        self.replicas: Dict[int, List[MRPStoreReplica]] = {}
        self._sites = site_for_partition or {}

        for group in self.groups:
            self._build_partition(group, acceptors_per_partition, replicas_per_partition)
        if global_ring_id is not None:
            self._build_global_ring(global_ring_id)

    # ----------------------------------------------------------------- build
    def _build_partition(self, group: int, acceptors: int, replicas: int) -> None:
        site = self._sites.get(group, "dc1")
        if not self.system.topology.has_site(site):
            site = self.system.topology.sites()[0].name
        frontends = [
            ProposerFrontend(self.system.env, f"kv{group}-node{i}", site=site)
            for i in range(acceptors)
        ]
        partition_replicas = [
            MRPStoreReplica(self.system.env, f"kv{group}-replica{i}", site=site)
            for i in range(replicas)
        ]
        members: List[RingMember] = [
            RingMember(name=f.name, proposer=True, acceptor=True, learner=False)
            for f in frontends
        ] + [
            RingMember(name=r.name, proposer=False, acceptor=False, learner=True)
            for r in partition_replicas
        ]
        self.system.create_ring(group, members)
        self.frontends[group] = frontends
        self.replicas[group] = partition_replicas

    def _build_global_ring(self, ring_id: int) -> None:
        # Ring order matters for latency in a geo-distributed deployment: the
        # circulation should visit each region once, with that region's
        # acceptor and replicas adjacent, instead of criss-crossing the WAN.
        members: List[RingMember] = []
        for group in self.groups:
            # Each partition's first front-end (`kv<g>-node0`) also acts as
            # proposer/acceptor of the global ring, so cross-partition
            # commands can be ordered globally.  That couples the partition
            # rings and the global ring by traffic, not only by learners: the
            # whole service is one ring component and runs in one shard.
            frontend = self.frontends[group][0]
            members.append(RingMember(name=frontend.name, proposer=True, acceptor=True, learner=False))
            for replica in self.replicas[group]:
                members.append(RingMember(name=replica.name, proposer=False, acceptor=False, learner=True))
        self.system.create_ring(ring_id, members)

    # -------------------------------------------------------------- accessors
    def all_replicas(self) -> List[MRPStoreReplica]:
        """Every replica of every partition."""
        return [r for group in self.groups for r in self.replicas[group]]

    def frontend_map(self, preferred_site: Optional[str] = None) -> Dict[int, str]:
        """Front-end process each group's commands should be submitted to.

        When ``preferred_site`` is given, a front-end on that site is chosen
        if one exists (clients submit to their local region in Figure 7).
        """
        mapping: Dict[int, str] = {}
        for group in self.groups:
            candidates = self.frontends[group]
            chosen = candidates[0]
            if preferred_site is not None:
                for frontend in candidates:
                    if frontend.site == preferred_site:
                        chosen = frontend
                        break
            mapping[group] = chosen.name
        return mapping

    # ------------------------------------------------------------------ data
    def preload(self, keys_with_sizes: Dict[str, int]) -> None:
        """Load initial data directly into every replica's store.

        The paper initialises the YCSB database with 1 GB of data before the
        measurement; loading through the ordering layer would dominate the
        simulation run time without changing the measured behaviour, so the
        preload bypasses ordering (every replica receives the same entries).
        Being on stable storage before the run, the entries are also what a
        replica that crashes falls back to (:meth:`MRPStoreReplica.load_initial`).
        """
        images: Dict[int, Dict[str, StoredValue]] = {group: {} for group in self.groups}
        group_for_key = self.partitioner.group_for_key
        for key, size in keys_with_sizes.items():
            image = images.get(group_for_key(key))
            if image is not None:
                image[key] = StoredValue(value=None, size_bytes=size)
        for group, image in images.items():
            for replica in self.replicas[group]:
                replica.load_initial(image)

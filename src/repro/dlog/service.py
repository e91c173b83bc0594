"""dLog deployment builder.

Wires the distributed-log service on top of an
:class:`~repro.core.amcast.AtomicMulticast` deployment.  Each log is backed by
one ring; replicas subscribe to the rings of the logs they host — in the
vertical-scalability experiment (Figure 6) the learners subscribe to ``k`` log
rings plus one *common ring* shared by all learners, and each ring's acceptor
log is pinned to its own disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.amcast import AtomicMulticast
from ..core.client import ClosedLoopClient
from ..core.config import MultiRingConfig
from ..core.smr import ProposerFrontend
from ..net.ring import RingMember
from ..sim.disk import Disk, DiskProfile, HDD_PROFILE, profile_for_mode
from .client import DLogCommands, append_request_factory
from .replica import DLogReplica

__all__ = ["DLogService"]


class DLogService:
    """A deployed dLog: one ring per log, shared replicas, optional common ring."""

    def __init__(
        self,
        system: AtomicMulticast,
        log_ids: Sequence[int],
        acceptors_per_log: int = 2,
        replica_count: int = 1,
        common_ring_id: Optional[int] = None,
        dedicated_disks: bool = False,
        disk_profile: DiskProfile = HDD_PROFILE,
        config: Optional[MultiRingConfig] = None,
        site: str = "dc1",
    ) -> None:
        if not log_ids:
            raise ValueError("need at least one log")
        self.system = system
        self.log_ids = list(log_ids)
        self.common_ring_id = common_ring_id
        self.config = config or system.config
        self.commands = DLogCommands()
        self.frontends: Dict[int, List[ProposerFrontend]] = {}
        self.replicas: List[DLogReplica] = []
        self._site = site if system.topology.has_site(site) else system.topology.sites()[0].name

        self.replicas = [
            DLogReplica(system.env, f"dlog-replica{i}", site=self._site, config=self.config)
            for i in range(replica_count)
        ]

        for log_id in self.log_ids:
            self._build_log_ring(log_id, acceptors_per_log, dedicated_disks, disk_profile)
        if common_ring_id is not None:
            self._build_common_ring(common_ring_id, acceptors_per_log)

    # ----------------------------------------------------------------- build
    def _build_log_ring(
        self,
        log_id: int,
        acceptors: int,
        dedicated_disks: bool,
        disk_profile: DiskProfile,
    ) -> None:
        frontends = [
            ProposerFrontend(self.system.env, f"dlog{log_id}-node{i}", site=self._site, config=self.config)
            for i in range(acceptors)
        ]
        members: List[RingMember] = [
            RingMember(name=f.name, proposer=True, acceptor=True, learner=False)
            for f in frontends
        ] + [
            RingMember(name=r.name, proposer=False, acceptor=False, learner=True)
            for r in self.replicas
        ]
        disks: Optional[Dict[str, Disk]] = None
        if dedicated_disks:
            # One device per ring, shared by that ring's acceptors — this is
            # how Figure 6 adds storage resources together with rings.
            profile = profile_for_mode(self.config.storage_mode) or disk_profile
            disks = {
                f.name: Disk(self.system.env, profile, name=f"ring{log_id}.disk")
                for f in frontends
            }
        self.system.create_ring(log_id, members, config=self.config, disks=disks)
        self.frontends[log_id] = frontends

    def _build_common_ring(self, ring_id: int, acceptors: int) -> None:
        frontends = [
            ProposerFrontend(self.system.env, f"dlogc-node{i}", site=self._site, config=self.config)
            for i in range(acceptors)
        ]
        members: List[RingMember] = [
            RingMember(name=f.name, proposer=True, acceptor=True, learner=False)
            for f in frontends
        ] + [
            RingMember(name=r.name, proposer=False, acceptor=False, learner=True)
            for r in self.replicas
        ]
        self.system.create_ring(ring_id, members, config=self.config)
        self.frontends[ring_id] = frontends

    # -------------------------------------------------------------- accessors
    def frontend_map(self) -> Dict[int, str]:
        """Front-end process to submit each log's commands to."""
        return {log_id: self.frontends[log_id][0].name for log_id in self.frontends}

    # ---------------------------------------------------------------- clients
    def create_append_client(
        self,
        name: str,
        concurrency: int = 1,
        append_bytes: int = 1024,
        logs: Optional[Sequence[int]] = None,
        multi_append_every: Optional[int] = None,
        metric_prefix: Optional[str] = None,
        max_requests: Optional[int] = None,
    ) -> ClosedLoopClient:
        """A closed-loop client appending records round-robin over ``logs``."""
        target_logs = list(logs) if logs else list(self.log_ids)
        factory = append_request_factory(
            self.commands,
            log_chooser=lambda seq: target_logs[seq % len(target_logs)],
            append_bytes=append_bytes,
            multi_append_every=multi_append_every,
            multi_append_logs=target_logs if multi_append_every else None,
        )
        return ClosedLoopClient(
            self.system.env,
            name,
            frontends_by_group=self.frontend_map(),
            request_factory=factory,
            concurrency=concurrency,
            site=self._site,
            metric_prefix=metric_prefix or name,
            max_requests=max_requests,
        )

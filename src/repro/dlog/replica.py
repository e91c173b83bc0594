"""dLog replica: executes append / multi-append / trim commands.

A dLog replica implements the learner interface of Multi-Ring Paxos
(Section 7.3): each log is backed by one multicast group/ring, and a replica
hosts the logs of every ring it subscribes to.  ``append`` and ``trim``
commands arrive through the ring of the log they address; ``multi-append``
commands are multicast to every log involved and the replica executes the
append for the log of the group that delivered the command — atomicity
across logs follows from the deterministic merge order.  (No workload issues
Table 2's ``read``, so it is not modelled.)
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.client import Command
from ..core.config import MultiRingConfig
from ..core.smr import StateMachineReplica
from ..sim.actor import Environment
from .log import SharedLog

__all__ = ["DLogReplica"]


class DLogReplica(StateMachineReplica):
    """A replica hosting one :class:`SharedLog` per subscribed group."""

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str = "dc1",
        config: Optional[MultiRingConfig] = None,
        respond_to_clients: bool = True,
    ) -> None:
        super().__init__(env, name, site, config=config, respond_to_clients=respond_to_clients)
        self.logs: Dict[int, SharedLog] = {}

    # ---------------------------------------------------------------- helpers
    def log_for(self, group_id: int) -> SharedLog:
        """The shared log backed by ``group_id`` (created lazily)."""
        if group_id not in self.logs:
            self.logs[group_id] = SharedLog(group_id)
        return self.logs[group_id]

    # ------------------------------------------------------------ state machine
    def apply_command(self, group_id: int, command: Command) -> Any:
        """Execute one Table 2 operation."""
        op = command.op
        log = self.log_for(group_id)
        if op in ("append", "multi-append"):
            size = command.args[0] if command.args else command.size_bytes
            position = log.append(size_bytes=size)
            return {"log": group_id, "position": position}
        if op == "trim":
            position = command.args[0]
            segment = log.trim(position)
            return {"log": group_id, "trimmed_up_to": position, "segment_bytes": segment.bytes}
        raise ValueError(f"unknown dLog operation: {op}")

    # --------------------------------------------------------------- snapshots
    def snapshot_state(self) -> Tuple[Dict[int, Dict], int]:
        snapshot = {group: log.snapshot() for group, log in self.logs.items()}
        size = max(sum(log.cached_bytes for log in self.logs.values()), 1)
        return snapshot, size

    def install_state_snapshot(self, state: Dict[int, Dict]) -> None:
        self.logs = {}
        for group, log_snapshot in state.items():
            log = SharedLog(group)
            log.restore(log_snapshot)
            self.logs[group] = log

    def reset_state(self) -> None:
        self.logs = {}

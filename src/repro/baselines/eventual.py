"""Eventually consistent partitioned store (Cassandra stand-in).

Figure 4 compares MRP-Store against Apache Cassandra, which "does not impose
any ordering on requests" and is therefore consistently faster on most YCSB
workloads.  The stand-in reproduces that ordering discipline rather than
Cassandra's implementation details:

* data is hash-partitioned and replicated (replication factor ``R``);
* a client request is served by a single coordinator replica, which applies
  the operation locally, responds immediately, and propagates writes to the
  other replicas *asynchronously* (read-one/write-one, eventual consistency);
* no consensus, no ordering, no cross-partition coordination — the only costs
  are the request/response network hops and per-operation CPU.

Because nothing is ordered, concurrent writes may be applied in different
orders at different replicas — the consistency gap that motivates the paper.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.client import Command
from ..kvstore.partitioning import HashPartitioner, Partitioner
from ..kvstore.store import KeyValueStore
from ..net.message import ClientRequest, ClientResponse
from ..sim.actor import Actor, Environment
from ..sim.cpu import CpuCostModel

__all__ = ["EventualStoreReplica", "EventualStoreService", "ReplicateWrite"]


class ReplicateWrite(ClientRequest):
    """Asynchronous replication message between replicas (no acknowledgement)."""


class EventualStoreReplica(Actor):
    """One replica of the eventually consistent store."""

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str = "dc1",
        cpu_model: Optional[CpuCostModel] = None,
    ) -> None:
        super().__init__(env, name, site)
        self.store = KeyValueStore()
        self.peers: List[str] = []
        self._cpu_model = cpu_model or CpuCostModel(per_message=6e-6, per_byte=2e-9)

    # -------------------------------------------------------------- messages
    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ReplicateWrite):
            self._apply(message.command)
            return
        if not isinstance(message, ClientRequest):
            return
        command: Command = message.command
        self.cpu.charge_message(self._cpu_model, command.size_bytes)
        result = self._apply(command)
        self.send(
            message.client,
            ClientResponse(
                payload_bytes=command.response_size,
                request_id=command.command_id,
                result={"group_id": command.group_id, "value": result},
                replica=self.name,
            ),
        )
        if command.op in ("update", "insert"):
            for peer in self.peers:
                self.send(peer, ReplicateWrite(payload_bytes=command.size_bytes, command=command))

    def _apply(self, command: Command) -> Any:
        op = command.op
        if op == "read":
            entry = self.store.read(command.args[0])
            return {"found": entry is not None}
        if op == "scan":
            start_key, end_key, limit = command.args
            return {"count": len(self.store.scan(start_key, end_key, limit))}
        if op in ("update", "insert"):
            key, value, size = command.args
            if op == "update":
                self.store.update(key, value, size)
            else:
                self.store.insert(key, value, size)
            return {"ok": True}
        raise ValueError(f"unknown operation: {op}")


class EventualStoreService:
    """A deployed eventually consistent store: partitions × replication factor."""

    def __init__(
        self,
        env: Environment,
        partition_groups: Sequence[int],
        replication_factor: int = 3,
        partitioner: Optional[Partitioner] = None,
        site: str = "dc1",
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.env = env
        self.groups = list(partition_groups)
        self.partitioner = partitioner or HashPartitioner(self.groups)
        self.replicas: Dict[int, List[EventualStoreReplica]] = {}
        for group in self.groups:
            replicas = [
                EventualStoreReplica(env, f"ec{group}-replica{i}", site=site)
                for i in range(replication_factor)
            ]
            for replica in replicas:
                replica.peers = [r.name for r in replicas if r.name != replica.name]
            self.replicas[group] = replicas

    def frontend_map(self) -> Dict[int, str]:
        """Coordinator replica each group's requests are sent to."""
        return {group: self.replicas[group][0].name for group in self.groups}

    def preload(self, keys_with_sizes: Dict[str, int]) -> None:
        """Load initial data into every replica of the owning partition."""
        for key, size in keys_with_sizes.items():
            group = self.partitioner.group_for_key(key)
            for replica in self.replicas[group]:
                replica.store.insert(key, None, size)

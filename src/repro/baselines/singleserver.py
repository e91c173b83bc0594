"""Single-server store (MySQL stand-in).

Figure 4's third comparator is "a single MySQL instance": strongly consistent
by construction because a single server serialises every request, but unable
to scale horizontally.  The stand-in is one server actor that

* applies every operation against one local :class:`~repro.kvstore.store.KeyValueStore`,
* charges a per-operation service time (parsing/plan/buffer-pool work) — the
  cost that bounds a single node's throughput,
* serialises execution: requests queue behind each other, so throughput
  plateaus at ``1 / service_time`` regardless of client count.

The paper observes "MRP-Store compares similarly to MySQL" while only
MRP-Store can scale out with more partitions; the benchmarks reproduce that
relationship rather than MySQL's absolute performance.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.client import Command
from ..kvstore.store import KeyValueStore
from ..net.message import ClientRequest, ClientResponse
from ..sim.actor import Actor, Environment
from ..sim.cpu import CpuCostModel

__all__ = ["SingleServerStore"]


class SingleServerStore(Actor):
    """A strongly consistent, non-scalable single-node store."""

    #: Service time of one read, update/insert and scan (seconds).
    READ_SERVICE_TIME = 0.00006
    WRITE_SERVICE_TIME = 0.00012
    SCAN_SERVICE_TIME = 0.00030

    def __init__(self, env: Environment, name: str = "sqlserver", site: str = "dc1") -> None:
        super().__init__(env, name, site)
        self.store = KeyValueStore()
        self._busy_until = 0.0
        self._cpu_model = CpuCostModel(per_message=5e-6, per_byte=1.5e-9)

    # -------------------------------------------------------------- messages
    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientRequest):
            return
        command: Command = message.command
        self.cpu.charge_message(self._cpu_model, command.size_bytes)
        service_time = self._service_time(command)
        start = max(self.now, self._busy_until)
        finish = start + service_time
        self._busy_until = finish
        self.env.simulator.schedule(finish - self.now, self._complete, command)

    def _service_time(self, command: Command) -> float:
        if command.op == "read":
            return self.READ_SERVICE_TIME
        if command.op == "scan":
            return self.SCAN_SERVICE_TIME
        return self.WRITE_SERVICE_TIME

    def _complete(self, command: Command) -> None:
        result = self._apply(command)
        if command.client:
            self.send(
                command.client,
                ClientResponse(
                    command.response_size, command.command_id, command.group_id, result, self.name
                ),
            )

    def _apply(self, command: Command) -> Any:
        op = command.op
        if op == "read":
            entry = self.store.read(command.args[0])
            return {"found": entry is not None}
        if op == "scan":
            start_key, end_key, limit = command.args
            return {"count": len(self.store.scan(start_key, end_key, limit))}
        if op == "update":
            key, value, size = command.args
            return {"updated": self.store.update(key, value, size)}
        if op == "insert":
            key, value, size = command.args
            return {"inserted": self.store.insert(key, value, size)}
        raise ValueError(f"unknown operation: {op}")

    def preload(self, keys_with_sizes: Dict[str, int]) -> None:
        """Load initial data directly into the store."""
        for key, size in keys_with_sizes.items():
            self.store.insert(key, None, size)

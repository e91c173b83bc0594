"""MRP-Store replica: the partition state machine.

A replica subscribes to the ring of the partition it replicates (and, in the
globally ordered configuration, to a common global ring as well) and executes
delivered commands against its in-memory :class:`~repro.kvstore.store.KeyValueStore`.
Replication follows the state-machine approach, so the service is sequentially
consistent: atomic multicast prevents cycles in the execution of
multi-partition operations (Section 6.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.client import Command
from ..core.config import MultiRingConfig
from ..core.smr import StateMachineReplica
from ..sim.actor import Environment
from .store import KeyValueStore, StoredValue

__all__ = ["MRPStoreReplica"]


class MRPStoreReplica(StateMachineReplica):
    """A replica of one MRP-Store partition."""

    def __init__(
        self,
        env: Environment,
        name: str,
        site: str = "dc1",
        config: Optional[MultiRingConfig] = None,
        respond_to_clients: bool = True,
    ) -> None:
        super().__init__(env, name, site, config=config, respond_to_clients=respond_to_clients)
        self.store = KeyValueStore()
        #: the database as initialised on stable storage before the run
        self._initial: Dict[str, StoredValue] = {}

    # ------------------------------------------------------------ state machine
    def apply_command(self, group_id: int, command: Command) -> Any:
        """Execute one Table 1 operation against the in-memory store."""
        op = command.op
        if op == "read":
            (key,) = command.args[:1]
            entry = self.store.read(key)
            return {"found": entry is not None, "size": entry.size_bytes if entry else 0}
        if op == "scan":
            start_key, end_key, limit = command.args
            entries = self.store.scan(start_key, end_key, limit)
            return {"count": len(entries), "bytes": sum(e.size_bytes for _, e in entries)}
        if op == "update":
            key, value, size = command.args
            return {"updated": self.store.update(key, value, size)}
        if op == "insert":
            key, value, size = command.args
            return {"inserted": self.store.insert(key, value, size)}
        raise ValueError(f"unknown MRP-Store operation: {op}")

    # --------------------------------------------------------------- snapshots
    def snapshot_state(self) -> Tuple[Dict[str, StoredValue], int]:
        return self.store.snapshot(), max(self.store.size_bytes, 1)

    def install_state_snapshot(self, state: Dict[str, StoredValue]) -> None:
        self.store.restore(state)

    def load_initial(self, entries: Dict[str, StoredValue]) -> None:
        """Upsert ``entries`` without ordering them, as the initial database.

        The paper loads the database onto stable storage before a run, so
        unlike anything applied later these entries survive a crash: they
        were never multicast, hence neither a checkpoint taken before the
        crash nor the acceptors' logs could bring them back.
        """
        self._initial.update(entries)
        merged = self.store.snapshot()
        merged.update(entries)
        self.store.restore(merged)

    def reset_state(self) -> None:
        self.store.restore(self._initial)

    # --------------------------------------------------------------- inspection
    def entry_count(self) -> int:
        """Number of entries currently stored by this replica."""
        return len(self.store)

"""Sequencer-based ensemble log (Apache Bookkeeper stand-in).

Figure 5 compares dLog against Apache Bookkeeper, a distributed log with
strong consistency whose latency is dominated by "its aggressive batching
mechanism, which attempts to maximize disk use by writing in large chunks".
The stand-in captures the two structural properties that matter for the
comparison:

* appends are funnelled through a *leader/sequencer* that assigns positions —
  a central component that caps scalability;
* the leader accumulates appends into large batches and only acknowledges
  them after the batch has been written synchronously by a quorum of the
  ensemble's storage nodes, so at low or moderate load every append pays most
  of the batch window plus a large synchronous write.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.client import Command
from ..net.message import ClientRequest, ClientResponse, Message
from ..sim.actor import Actor, Environment
from ..sim.cpu import CpuCostModel
from ..sim.disk import Disk, HDD_PROFILE

__all__ = ["SequencerLogLeader", "EnsembleStorageNode", "SequencerLogService", "BatchWrite", "BatchAck"]


class BatchWrite(Message):
    """A batch of appends shipped by the leader to a storage node."""

    def __init__(self, batch_id: int, entry_count: int, payload_bytes: int) -> None:
        super().__init__(payload_bytes=payload_bytes)
        self.batch_id = batch_id
        self.entry_count = entry_count


class BatchAck(Message):
    """Storage-node acknowledgement after its synchronous write completed."""

    def __init__(self, batch_id: int) -> None:
        super().__init__(payload_bytes=16)
        self.batch_id = batch_id


class EnsembleStorageNode(Actor):
    """A storage node writing batches synchronously to its local hard disk."""

    def __init__(self, env: Environment, name: str, site: str = "dc1") -> None:
        super().__init__(env, name, site)
        self.disk = Disk(env, HDD_PROFILE, name=f"{name}.disk")
        self._cpu_model = CpuCostModel()

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, BatchWrite):
            return
        self.cpu.charge_message(self._cpu_model, message.payload_bytes)
        batch_id = message.batch_id
        self.disk.write(
            message.payload_bytes,
            on_complete=lambda: self.send(sender, BatchAck(batch_id)),
        )


class SequencerLogLeader(Actor):
    """The sequencer: assigns positions, batches, replicates to the ensemble.

    A batch is acknowledged once a majority of the ensemble wrote it.
    """

    #: Per-append sequencer work (offset allocation, ledger metadata, journal
    #: bookkeeping), in seconds.  The central sequencer serialises this work,
    #: which is what caps the comparator's throughput in Figure 5.
    APPEND_SERVICE_TIME = 0.0012

    #: A batch flushes once it holds this many bytes, or at the latest every
    #: ``BATCH_WINDOW`` seconds.
    BATCH_BYTES = 512 * 1024
    BATCH_WINDOW = 0.020

    def __init__(
        self,
        env: Environment,
        name: str,
        storage_nodes: List[str],
        site: str = "dc1",
    ) -> None:
        super().__init__(env, name, site)
        if not storage_nodes:
            raise ValueError("the ensemble needs at least one storage node")
        self.storage_nodes = list(storage_nodes)
        self.ack_quorum = len(self.storage_nodes) // 2 + 1
        self._sequencer_busy_until = 0.0
        self._next_position = 0
        self._next_batch_id = 0
        self._pending: List[Command] = []
        self._pending_bytes = 0
        self._flush_timer = None
        self._inflight: Dict[int, Dict[str, Any]] = {}
        self._cpu_model = CpuCostModel()

    # -------------------------------------------------------------- messages
    def on_start(self) -> None:
        self._flush_timer = self.set_periodic_timer(self.BATCH_WINDOW, self._flush)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, BatchAck):
            self._handle_ack(message)
            return
        if not isinstance(message, ClientRequest):
            return
        command: Command = message.command
        self.cpu.charge_message(self._cpu_model, command.size_bytes)
        # The sequencer serialises per-append work before the append can join
        # a batch; queueing behind it is the central-component bottleneck.
        start = max(self.now, self._sequencer_busy_until)
        self._sequencer_busy_until = start + self.APPEND_SERVICE_TIME
        self.env.simulator.schedule(
            self._sequencer_busy_until - self.now, self._enqueue_append, command
        )

    def _enqueue_append(self, command: Command) -> None:
        command.args = (self._next_position,) + tuple(command.args)
        self._next_position += 1
        self._pending.append(command)
        self._pending_bytes += command.size_bytes
        if self._pending_bytes >= self.BATCH_BYTES:
            self._flush()

    # ---------------------------------------------------------------- batches
    def _flush(self) -> None:
        if not self._pending:
            return
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        commands, size = self._pending, self._pending_bytes
        self._pending, self._pending_bytes = [], 0
        self._inflight[batch_id] = {"commands": commands, "acks": 0}
        for node in self.storage_nodes:
            self.send(node, BatchWrite(batch_id, len(commands), size))

    def _handle_ack(self, ack: BatchAck) -> None:
        entry = self._inflight.get(ack.batch_id)
        if entry is None:
            return
        entry["acks"] += 1
        if entry["acks"] < self.ack_quorum:
            return
        del self._inflight[ack.batch_id]
        for command in entry["commands"]:
            if command.client:
                self.send(
                    command.client,
                    ClientResponse(
                        command.response_size,
                        command.command_id,
                        command.group_id,
                        command.args[0],
                        self.name,
                    ),
                )


class SequencerLogService:
    """A deployed sequencer log: one leader plus an ensemble of storage nodes."""

    def __init__(
        self,
        env: Environment,
        ensemble_size: int = 3,
        site: str = "dc1",
    ) -> None:
        self.env = env
        self.storage_nodes = [
            EnsembleStorageNode(env, f"bk-storage{i}", site=site)
            for i in range(ensemble_size)
        ]
        self.leader = SequencerLogLeader(
            env,
            "bk-leader",
            storage_nodes=[n.name for n in self.storage_nodes],
            site=site,
        )

    def frontend_map(self, group_ids) -> Dict[int, str]:
        """Every group's appends go through the single sequencer."""
        return {g: self.leader.name for g in group_ids}

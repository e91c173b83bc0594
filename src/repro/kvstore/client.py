"""Client-side command builders for MRP-Store.

The workloads access the store through four operations of Table 1:
``read``, ``scan``, ``update`` and ``insert`` (no workload deletes).
Single-key commands are multicast to the group owning the key; ``scan``
commands are multicast to every group that may hold keys of the interval —
all groups under hash partitioning (Section 6.1).

:class:`MRPStoreCommands` turns operations into :class:`~repro.core.client.Command`
objects with the correct group routing and size accounting;
:func:`kv_request_factory` adapts a workload generator into the request
factory consumed by :class:`~repro.core.client.ClosedLoopClient`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.client import Command
from .partitioning import Partitioner

__all__ = ["MRPStoreCommands", "kv_request_factory"]

#: Rough per-command framing (operation name, key, lengths) on the wire.
_COMMAND_OVERHEAD = 48


class MRPStoreCommands:
    """Builds routed commands for the MRP-Store operations of Table 1."""

    def __init__(self, partitioner: Partitioner) -> None:
        self.partitioner = partitioner
        #: each distinct command size, built once: every command of a size
        #: shares one int (sizes above 256 are not interpreter-cached)
        self._sizes: Dict[int, int] = {}

    # ------------------------------------------------------------ single key
    def read(self, key: str, response_size: int = 1024) -> Command:
        """``read(k)`` — return the value of entry ``k``, if existent."""
        size = _COMMAND_OVERHEAD + len(key)
        return Command(
            "read",
            (key,),
            self.partitioner.group_for_key(key),
            self._sizes.setdefault(size, size),
            response_size=response_size,
        )

    def update(self, key: str, value_size: int, value: object = None) -> Command:
        """``update(k, v)`` — update entry ``k`` with value ``v``, if existent."""
        size = _COMMAND_OVERHEAD + len(key) + value_size
        return Command(
            "update",
            (key, value, value_size),
            self.partitioner.group_for_key(key),
            self._sizes.setdefault(size, size),
        )

    def insert(self, key: str, value_size: int, value: object = None) -> Command:
        """``insert(k, v)`` — insert tuple ``(k, v)`` in the database."""
        size = _COMMAND_OVERHEAD + len(key) + value_size
        return Command(
            "insert",
            (key, value, value_size),
            self.partitioner.group_for_key(key),
            self._sizes.setdefault(size, size),
        )

    # ------------------------------------------------------------------ scan
    def scan(self, start_key: str, end_key: str, limit: Optional[int] = None) -> List[Command]:
        """``scan(k, k')`` — one command per partition that may hold the range.

        The client must wait for at least one response from every partition
        addressed (Section 7.2), which is why this returns a list.
        """
        size = _COMMAND_OVERHEAD + len(start_key) + len(end_key)
        size = self._sizes.setdefault(size, size)
        commands = []
        for group in self.partitioner.groups_for_range(start_key, end_key):
            commands.append(
                Command("scan", (start_key, end_key, limit), group, size, response_size=4096)
            )
        return commands


#: A workload step: ``(op, key, value_size, end_key)``; ``end_key`` is only
#: meaningful for scans.
WorkloadStep = Tuple[str, str, int, Optional[str]]


def kv_request_factory(
    commands: MRPStoreCommands,
    workload: Callable[[int], WorkloadStep],
) -> Callable[[int], Tuple[Sequence[Command], Sequence[int]]]:
    """Adapt a workload generator into a closed-loop client request factory.

    ``workload(sequence)`` returns the next operation; the factory converts it
    into routed commands and the set of groups whose response the client must
    await (one group for single-key operations, every addressed group for
    scans).
    """

    def factory(sequence: int) -> Tuple[Sequence[Command], Sequence[int]]:
        op, key, value_size, end_key = workload(sequence)
        if op == "read":
            command = commands.read(key)
            return [command], [command.group_id]
        if op == "update":
            command = commands.update(key, value_size)
            return [command], [command.group_id]
        if op == "insert":
            command = commands.insert(key, value_size)
            return [command], [command.group_id]
        if op == "read-modify-write":
            # YCSB workload F: the client reads then writes the same key; the
            # ordering layer sees both commands.
            read_cmd = commands.read(key)
            write_cmd = commands.update(key, value_size)
            return [read_cmd, write_cmd], [read_cmd.group_id]
        if op == "scan":
            scan_cmds = commands.scan(key, end_key or key)
            return scan_cmds, [c.group_id for c in scan_cmds]
        raise ValueError(f"unknown operation: {op}")

    return factory

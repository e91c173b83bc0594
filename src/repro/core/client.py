"""Client-side building blocks: commands, batching and closed-loop clients.

The services of the paper share a client structure (Sections 7.2-7.3):

* a client addresses the proposer of the ring responsible for the data it
  touches;
* small commands going to the same partition may be *batched* into packets of
  up to 32 KB before being submitted;
* replicas execute delivered commands and answer the client directly (UDP in
  the prototype); for single-partition commands the client waits for the
  first response, for multi-partition commands (scans, multi-appends) it
  waits for at least one response from every partition involved.

:class:`Command` is the unit of work ordered by atomic multicast.
:class:`CommandBatch` is what a client batcher produces.
:class:`ClosedLoopClient` drives a fixed number of outstanding requests (the
paper's "client threads") and records per-command latency and throughput.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..net.message import ClientRequest, ClientResponse, Message
from ..sim.actor import Actor, Environment

__all__ = [
    "Command",
    "CommandBatch",
    "CommandBatcher",
    "ClosedLoopClient",
    "OpenLoopClient",
    "RequestFactory",
]

_command_ids = itertools.count(1)


@dataclass
class Command:
    """One service command ordered through atomic multicast.

    Attributes
    ----------
    op:
        Operation name (e.g. ``"update"``, ``"append"``, ``"scan"``).
    args:
        Operation arguments (key, value, range bounds, ...).
    group_id:
        Multicast group the command is addressed to.
    size_bytes:
        Payload size used for wire/disk accounting.
    client / command_id:
        Identify where the response must go and which request it answers.
    created_at:
        Submission time; used for end-to-end latency.
    response_size:
        Size of the response payload sent back by replicas.
    """

    op: str
    args: Tuple = ()
    group_id: int = 0
    size_bytes: int = 64
    client: str = ""
    command_id: int = field(default_factory=lambda: next(_command_ids))
    created_at: float = 0.0
    response_size: int = 32


@dataclass
class CommandBatch:
    """Several commands for the same group packed into one request."""

    group_id: int = 0
    commands: List[Command] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """Total payload of the batch."""
        return sum(c.size_bytes for c in self.commands)

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)


class CommandBatcher:
    """Groups commands per partition up to a byte budget (32 KB by default)."""

    def __init__(self, max_bytes: int = 32 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._pending: Dict[int, List[Command]] = {}
        #: running byte total per group — kept in lockstep with ``_pending``
        #: so :meth:`add` is O(1) instead of re-summing the queue every time
        self._pending_bytes: Dict[int, int] = {}

    def add(self, command: Command) -> Optional[CommandBatch]:
        """Queue a command; returns a full batch when the budget is reached."""
        group_id = command.group_id
        queue = self._pending.setdefault(group_id, [])
        queue.append(command)
        total = self._pending_bytes.get(group_id, 0) + command.size_bytes
        self._pending_bytes[group_id] = total
        if total >= self.max_bytes:
            return self.flush_group(group_id)
        return None

    def flush_group(self, group_id: int) -> Optional[CommandBatch]:
        """Emit whatever is pending for ``group_id`` (``None`` when empty)."""
        queue = self._pending.pop(group_id, [])
        self._pending_bytes.pop(group_id, None)
        if not queue:
            return None
        return CommandBatch(group_id=group_id, commands=queue)

    def flush_all(self) -> List[CommandBatch]:
        """Emit every non-empty pending batch."""
        batches = [
            CommandBatch(group_id=g, commands=cmds)
            for g, cmds in self._pending.items()
            if cmds
        ]
        self._pending.clear()
        self._pending_bytes.clear()
        return batches

    def pending_count(self, group_id: int) -> int:
        """Commands currently queued for ``group_id``."""
        return len(self._pending.get(group_id, []))

    def pending_bytes(self, group_id: int) -> int:
        """Bytes currently queued for ``group_id``."""
        return self._pending_bytes.get(group_id, 0)


#: Builds the next command for a closed-loop client; receives the sequence
#: number of the request and returns the command (or a list of commands for
#: multi-partition operations) plus the set of groups whose response must be
#: awaited.
RequestFactory = Callable[[int], Tuple[Sequence[Command], Sequence[int]]]


class ClosedLoopClient(Actor):
    """A client keeping a fixed number of requests outstanding.

    Parameters
    ----------
    env, name, site:
        Standard actor arguments.
    frontends_by_group:
        Maps each multicast group to the process the client submits commands
        of that group to (a proposer of the group's ring).
    request_factory:
        Produces the commands of the next logical request.
    concurrency:
        Number of outstanding logical requests (the paper's client threads).
    metric_prefix:
        Prefix under which latency/throughput instruments are registered.
    max_requests:
        Optional cap on issued requests (useful in tests).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        frontends_by_group: Dict[int, str],
        request_factory: RequestFactory,
        concurrency: int = 1,
        site: str = "dc1",
        metric_prefix: str = "client",
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(env, name, site)
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._concurrency = concurrency
        self._metric_prefix = metric_prefix
        self._max_requests = max_requests
        self._issued = 0
        self._completed = 0
        #: per logical request: groups still to answer and submission time
        self._outstanding: Dict[int, Dict[str, Any]] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")

    # ----------------------------------------------------------------- start
    def on_start(self) -> None:
        for _ in range(self._concurrency):
            self._issue_next()

    # ------------------------------------------------------------ issue side
    def _issue_next(self) -> None:
        if not self.alive:
            return
        if self._max_requests is not None and self._issued >= self._max_requests:
            return
        sequence = self._issued
        self._issued += 1
        commands, await_groups = self._factory(sequence)
        request_key = sequence
        op_label = "-".join(sorted({c.op for c in commands})) or "noop"
        self._outstanding[request_key] = {
            "pending_groups": set(await_groups),
            "submitted_at": self.now,
            "commands": len(commands),
            "op": op_label,
        }
        for command in commands:
            command.client = self.name
            command.created_at = self.now
            command.command_id = request_key
            frontend = self._frontends[command.group_id]
            self.send(
                frontend,
                ClientRequest(
                    payload_bytes=command.size_bytes,
                    client=self.name,
                    command=command,
                    created_at=self.now,
                ),
            )

    # --------------------------------------------------------- response side
    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        key = message.request_id
        entry = self._outstanding.get(key)
        if entry is None:
            return  # duplicate response from another replica of the same group
        group_id = message.result.get("group_id") if isinstance(message.result, dict) else None
        if group_id is not None:
            entry["pending_groups"].discard(group_id)
        else:
            entry["pending_groups"].clear()
        if entry["pending_groups"]:
            return
        del self._outstanding[key]
        self._completed += 1
        elapsed = self.now - entry["submitted_at"]
        self._latency.record(elapsed)
        self.env.metrics.latency(f"{self._metric_prefix}.latency.{entry['op']}").record(elapsed)
        self._throughput.record(1.0)
        self._issue_next()

    # ------------------------------------------------------------ inspection
    @property
    def issued(self) -> int:
        """Logical requests issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed

    @property
    def outstanding(self) -> int:
        """Logical requests currently awaiting responses."""
        return len(self._outstanding)


class OpenLoopClient(Actor):
    """A client issuing requests at a fixed rate, independent of responses.

    The recovery experiment (Figure 8) operates the system "at 75 % of its
    peak load": the offered load must stay constant while replicas fail and
    recover, which a closed-loop client cannot do (its rate collapses with the
    system's).  The open-loop client issues one logical request every
    ``1 / rate`` seconds and records the latency of whatever completes.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        frontends_by_group: Dict[int, str],
        request_factory: RequestFactory,
        rate_per_second: float,
        site: str = "dc1",
        metric_prefix: str = "client",
        max_requests: Optional[int] = None,
    ) -> None:
        super().__init__(env, name, site)
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._interval = 1.0 / rate_per_second
        self._metric_prefix = metric_prefix
        self._max_requests = max_requests
        self._issued = 0
        self._completed = 0
        self._outstanding: Dict[int, Dict[str, Any]] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")

    def on_start(self) -> None:
        self.set_periodic_timer(self._interval, self._issue_next)

    def _issue_next(self) -> None:
        if self._max_requests is not None and self._issued >= self._max_requests:
            return
        sequence = self._issued
        self._issued += 1
        commands, await_groups = self._factory(sequence)
        self._outstanding[sequence] = {
            "pending_groups": set(await_groups),
            "submitted_at": self.now,
        }
        for command in commands:
            command.client = self.name
            command.created_at = self.now
            command.command_id = sequence
            self.send(
                self._frontends[command.group_id],
                ClientRequest(
                    payload_bytes=command.size_bytes,
                    client=self.name,
                    command=command,
                    created_at=self.now,
                ),
            )

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        entry = self._outstanding.get(message.request_id)
        if entry is None:
            return
        group_id = message.result.get("group_id") if isinstance(message.result, dict) else None
        if group_id is not None:
            entry["pending_groups"].discard(group_id)
        else:
            entry["pending_groups"].clear()
        if entry["pending_groups"]:
            return
        del self._outstanding[message.request_id]
        self._completed += 1
        self._latency.record(self.now - entry["submitted_at"])
        self._throughput.record(1.0)

    @property
    def issued(self) -> int:
        """Logical requests issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed

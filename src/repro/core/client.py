"""Client-side building blocks: commands and the closed-loop client.

The services of the paper share a client structure (Sections 7.2-7.3):

* a client addresses the proposer of the ring responsible for the data it
  touches;
* replicas execute delivered commands and answer the client directly (UDP in
  the prototype); for single-partition commands the client waits for the
  first response, for multi-partition commands (scans, multi-appends) it
  waits for at least one response from every partition involved.

Packing small commands into 32 KB instances is the ring coordinator's job
(:mod:`repro.ringpaxos.coordinator`), not the client's.

:class:`Command` is the unit of work ordered by atomic multicast.
:class:`ClosedLoopClient` drives a fixed number of outstanding requests (the
paper's "client threads") and records per-command latency and throughput.
The open-loop client — a constant offered load, from one fixed-rate client
to a million users — is :class:`~repro.core.swarm.ClientSwarm`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple

from ..net.message import ClientRequest, ClientResponse
from ..sim.actor import Actor, Environment
from ..sim.metrics import LatencyRecorder

__all__ = [
    "Command",
    "ClosedLoopClient",
    "RequestFactory",
]

_command_ids = itertools.count(1)


@dataclass(slots=True)
class Command:
    """One service command ordered through atomic multicast.

    Slotted: a run keeps one per ordered command, so it carries no instance
    ``__dict__``.

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
    command_id: int = field(default_factory=_command_ids.__next__)
    created_at: float = 0.0
    response_size: int = 32


class CommandBatch:
    """Never built: coordinator batching is the one batching layer.

    The name stays importable because ``benchmarks/ledger/ledger_workloads.py``
    still tests decided payloads against it; it goes with the next change to
    the ledger.
    """


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
        #: per logical request: ``(groups still to answer, submission time,
        #: operation label)``
        self._outstanding: Dict[int, Tuple[Set[int], float, str]] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")
        #: per-operation latency recorders, resolved once per label
        self._op_latency: Dict[str, LatencyRecorder] = {}

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
        # The sorted set of the request's operations; one command's is its op.
        if len(commands) == 1:
            label = commands[0].op
        else:
            label = "-".join(sorted({c.op for c in commands})) or "noop"
        now = self.env.simulator._now
        name = self.name
        self._outstanding[request_key] = (set(await_groups), now, label)
        for command in commands:
            command.client = name
            command.created_at = now
            command.command_id = request_key
            self.send(
                self._frontends[command.group_id],
                ClientRequest(command.size_bytes, name, command, now),
            )

    # --------------------------------------------------------- response side
    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        key = message.request_id
        entry = self._outstanding.get(key)
        if entry is None:
            return  # duplicate response from another replica of the same group
        pending, submitted_at, label = entry
        group_id = message.group_id
        if group_id is not None:
            pending.discard(group_id)
        else:
            pending.clear()
        if pending:
            return
        del self._outstanding[key]
        self._completed += 1
        elapsed = self.env.simulator._now - submitted_at
        self._latency.record(elapsed)
        recorder = self._op_latency.get(label)
        if recorder is None:
            recorder = self._op_latency[label] = self.env.metrics.latency(
                f"{self._metric_prefix}.latency.{label}"
            )
        recorder.record(elapsed)
        self._throughput.record(1.0)
        self._issue_next()

    # ------------------------------------------------------------ inspection

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed

"""The fixed-rate client actor: one actor, one periodic timer, per client.

The open-loop differential's reference: ``repro.core.swarm.ClientSwarm``
with port addressing and ``STAGGER`` off must emit the command stream of
``K`` of these actors named ``"{swarm}.{index}"``, bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from repro.core.client import RequestFactory
from repro.net.message import ClientRequest, ClientResponse
from repro.sim.actor import Actor, Environment


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
    ) -> None:
        super().__init__(env, name, site)
        if rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._interval = 1.0 / rate_per_second
        self._metric_prefix = metric_prefix
        self._issued = 0
        self._completed = 0
        #: per logical request: ``(groups still to answer, submission time)``
        self._outstanding: Dict[int, Tuple[Set[int], float]] = {}
        self._latency = env.metrics.latency(f"{metric_prefix}.latency")
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")

    def on_start(self) -> None:
        self.set_periodic_timer(self._interval, self._issue_next)

    def _issue_next(self) -> None:
        sequence = self._issued
        self._issued += 1
        commands, await_groups = self._factory(sequence)
        now = self.now
        name = self.name
        self._outstanding[sequence] = (set(await_groups), now)
        for command in commands:
            command.client = name
            command.created_at = now
            command.command_id = sequence
            self.send(
                self._frontends[command.group_id],
                ClientRequest(command.size_bytes, name, command, now),
            )

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        entry = self._outstanding.get(message.request_id)
        if entry is None:
            return
        pending, submitted_at = entry
        group_id = message.group_id
        if group_id is not None:
            pending.discard(group_id)
        else:
            pending.clear()
        if pending:
            return
        del self._outstanding[message.request_id]
        self._completed += 1
        self._latency.record(self.now - submitted_at)
        self._throughput.record(1.0)

    @property
    def issued(self) -> int:
        """Logical requests issued so far."""
        return self._issued

    @property
    def completed(self) -> int:
        """Logical requests completed so far."""
        return self._completed

"""The reply contract every client reads: ``ClientResponse.group_id``.

A replica answers a command with the group (partition) it replicates.  A
request addressed to several partitions — a scan — completes once each of
them answered; a second replica of a partition that already answered counts
for nothing; a response without a group completes its request outright.  The
closed-loop client and the open-loop swarm (per-client ports and the shared
endpoint) complete requests by this one rule, and so does the fixed-rate
client the open-loop differential takes as its reference.
"""

from __future__ import annotations

import pytest

from repro.core import AtomicMulticast
from repro.core.client import ClosedLoopClient, Command
from repro.core.swarm import ClientSwarm, shared_factory
from repro.net.message import ClientRequest, ClientResponse
from repro.sim.actor import Actor
from repro.workloads.arrival import constant

from tests.reference.open_loop import OpenLoopClient

GROUPS = (0, 1, 2)


class _Frontend(Actor):
    """Takes a partition's requests and answers nothing by itself."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.requests = []

    def on_message(self, sender, message):
        if isinstance(message, ClientRequest):
            self.requests.append(message)


def scan_every_partition(sequence):
    commands = [Command("scan", ("a", "z", None), group, 64) for group in GROUPS]
    return commands, list(GROUPS)


class _SharedEndpointSwarm(ClientSwarm):
    PORT_ADDRESSING_LIMIT = 0


def _client(kind, env, frontends):
    if kind == "closed-loop":
        return ClosedLoopClient(env, "client", frontends, scan_every_partition)
    if kind == "open-loop":
        return OpenLoopClient(env, "client", frontends, scan_every_partition, rate_per_second=10.0)
    swarm_cls = ClientSwarm if kind == "swarm-ports" else _SharedEndpointSwarm
    return swarm_cls(
        env, "client", frontends, shared_factory(scan_every_partition), clients=1,
        arrival=constant(10.0),
    )


@pytest.mark.parametrize("kind", ["closed-loop", "open-loop", "swarm-ports", "swarm-shared"])
def test_a_scan_completes_once_every_partition_answered(kind):
    system = AtomicMulticast(seed=3)
    env = system.env
    frontends = [_Frontend(env, f"fe{group}") for group in GROUPS]
    client = _client(kind, env, {group: f"fe{group}" for group in GROUPS})
    system.start()

    def answer(group, group_id):
        """``frontends[group]`` answers its newest request as a replica would."""
        command = frontends[group].requests[-1].command
        frontends[group].send(
            command.client,
            ClientResponse(32, command.command_id, group_id, {"count": 0}, f"fe{group}"),
        )
        system.run(until=env.now + 0.005)
        return client.completed

    system.run(until=0.101)  # the open-loop clients issue at 0.1 s
    assert [len(frontend.requests) for frontend in frontends] == [1, 1, 1]
    assert answer(0, 0) == 0
    assert answer(0, 0) == 0  # another replica of partition 0
    assert answer(1, 1) == 0
    assert answer(2, 2) == 1

    system.run(until=0.21)  # the next request: issued on completion, or at 0.2 s
    assert [len(frontend.requests) for frontend in frontends] == [2, 2, 2]
    assert answer(1, None) == 2

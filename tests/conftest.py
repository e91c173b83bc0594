"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, List, Tuple

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from repro.net.message import ClientRequest
from repro.paxos.messages import ProposalValue


def mutate(method, *replacements: Tuple[str, str]):
    """``method`` recompiled from its source with seeded bugs.

    Each ``(old, new)`` pair must match the source exactly once, so a mutant
    whose site was edited fails loudly instead of silently testing nothing.
    Used by the fast-path differentials to show they catch a broken shortcut.
    """
    source = textwrap.dedent(inspect.getsource(method))
    for old, new in replacements:
        assert source.count(old) == 1, f"mutation site moved in {method.__qualname__}: {old!r}"
        source = source.replace(old, new)
    namespace = dict(method.__globals__)
    exec(source, namespace)
    return namespace[method.__name__]


def store_client(service, name, workload, concurrency=1, max_requests=None, site=None):
    """A closed-loop client driving an MRP-Store ``service`` with ``workload``.

    ``workload(sequence)`` returns ``(op, key, value_size, end_key)``; the
    client sits at ``site`` (default: the first site) and addresses that
    site's frontends.
    """
    from repro.core.client import ClosedLoopClient
    from repro.kvstore.client import kv_request_factory

    site = site or service.system.topology.sites()[0].name
    return ClosedLoopClient(
        service.system.env,
        name,
        frontends_by_group=service.frontend_map(preferred_site=site),
        request_factory=kv_request_factory(service.commands, workload),
        concurrency=concurrency,
        site=site,
        metric_prefix=name,
        max_requests=max_requests,
    )


class RecordingProcess(MultiRingProcess):
    """A process that records everything it delivers (for assertions)."""

    def __init__(self, env, name, site="dc1", messages_per_round=1):
        super().__init__(env, name, site, messages_per_round=messages_per_round)
        self.delivered: List[Tuple[int, int, object]] = []
        self.delivery_times: List[float] = []

    def on_deliver(self, group_id: int, instance: int, value: ProposalValue) -> None:
        self.delivered.append((group_id, instance, value.payload))
        self.delivery_times.append(self.now)

    def delivered_payloads(self, group_id=None):
        if group_id is None:
            return [p for _, _, p in self.delivered]
        return [p for g, _, p in self.delivered if g == group_id]


class SendTap:
    """What one network carried, counted from outside it.

    Replaces ``network.send`` on the instance.  A call counts as carried when
    the network's drop count did not move during it; ``bytes`` adds up what
    the carried messages occupy on the wire (``size_bytes`` + header).
    Actors keep the bound ``send`` they resolve on their first send, so the
    tap goes in before anything is sent.
    """

    def __init__(self, network) -> None:
        assert all(
            getattr(actor, "_network_send", None) is None for actor in network.env.actors()
        ), "install the tap before the first send"
        self.messages = 0
        self.bytes = 0
        stats, send, header = network.stats, network.send, network.HEADER_BYTES

        def counted(src, dst, message):
            dropped = stats.dropped
            send(src, dst, message)
            if stats.dropped == dropped:
                self.messages += 1
                self.bytes += message.size_bytes + header

        network.send = counted


class IssueTap:
    """The commands one ``ClientSwarm`` issued, read off ``network.send``.

    ``trace`` holds one ``(index, sequence, op, args, group_id, created_at)``
    tuple per issued command, in issue order.  Under port addressing the
    client index is the sending port's and the sequence is the command id;
    under shared addressing the command id is ``sequence * clients + index``.
    Like :class:`SendTap` it goes in before the swarm's first send.
    """

    def __init__(self, network, swarm) -> None:
        assert swarm._raw_send is None, "install the tap before the first send"
        self.trace: List[tuple] = []
        ports = {port.name: index for index, port in enumerate(swarm._ports)}
        clients, send = swarm._n, network.send

        def tapped(src, dst, message):
            if isinstance(message, ClientRequest) and (src in ports or src == swarm.name):
                command = message.command
                if src in ports:
                    index, sequence = ports[src], command.command_id
                else:
                    sequence, index = divmod(command.command_id, clients)
                self.trace.append((index, sequence, command.op, tuple(command.args),
                                   command.group_id, command.created_at))
            send(src, dst, message)

        network.send = tapped


@pytest.fixture
def quiet_config() -> MultiRingConfig:
    """A configuration with background machinery (skips, checkpoints, trims) off."""
    return MultiRingConfig(
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )


@pytest.fixture
def simple_ring(quiet_config):
    """A three-process ring where every process plays every role."""
    system = AtomicMulticast(seed=11, config=quiet_config)
    processes = [RecordingProcess(system.env, f"n{i}") for i in range(3)]
    system.create_ring(0, [(p.name, "pal") for p in processes])
    system.start()
    return system, processes


def build_two_ring_system(seed: int = 5, messages_per_round: int = 1):
    """Two rings, three shared learner/acceptor processes, one learner of ring 1 only."""
    config = MultiRingConfig(rate_interval=0.005, max_rate=500.0,
                             checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=seed, config=config)
    shared = [
        RecordingProcess(system.env, f"s{i}", messages_per_round=messages_per_round)
        for i in range(3)
    ]
    solo = RecordingProcess(system.env, "solo", messages_per_round=messages_per_round)
    system.create_ring(0, [(p.name, "pal") for p in shared])
    system.create_ring(1, [(p.name, "pal") for p in shared] + [(solo.name, "l")])
    system.start()
    return system, shared, solo

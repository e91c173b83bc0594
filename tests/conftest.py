"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import inspect
import textwrap
from typing import Dict, List, Tuple

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
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

"""The swarm's open-loop wheel pops in one heap's order under changing load.

``ClientSwarm`` merges three sorted sources — a cursor over clients that
never fired, a FIFO of re-arms in two columns, and a heap for re-arms that
arrive below the FIFO's last key (after the rate went up) and for churn
reconnects.  Under a flash crowd, a dip in the arrival rate and churn,
both the FIFO and the heap take re-arms, and the issue order must equal the
single heap of ``tests/reference/swarm.py``.  A frontend that swallows
requests is enough: open-loop issue never waits for a response.
"""

from __future__ import annotations

import heapq
import types

import pytest

from repro.core import swarm as swarm_module
from repro.core.client import Command
from repro.core.swarm import ChurnSpec, ClientSwarm
from repro.sim import Actor, Environment, Network, Topology
from repro.workloads.arrival import constant, flash_crowd
from tests.conftest import IssueTap
from tests.reference.swarm import HeapWheelSwarm

CLIENTS = 300

CURVES = {
    "dip": flash_crowd(base=2000.0, peak=200.0, at=0.3, ramp=0.5, hold=0.4, decay=0.5),
    "flash-crowd": flash_crowd(base=200.0, peak=2000.0, at=0.6, ramp=0.3, hold=0.4, decay=0.3),
    "constant": constant(900.0),
}


class _Sink(Actor):
    def on_message(self, sender, message):
        pass


def _request(index, sequence):
    return [Command(op="put", args=(index, sequence), group_id=0)], [0]


def _run(monkeypatch, swarm_cls, arrival, stagger=True, churn=ChurnSpec(rate=60.0, downtime=0.1)):
    """Run ``swarm_cls`` for 3 s; return it, the entries it pushed on its heap
    and its issue trace."""
    env = Environment(seed=5)
    topology = Topology()
    topology.add_site("dc1")
    network = Network(env, topology, jitter_fraction=0.0)
    _Sink(env, "frontend")
    monkeypatch.setattr(ClientSwarm, "STAGGER", stagger)
    swarm = swarm_cls(
        env, "swarm", {0: "frontend"}, _request, clients=CLIENTS, arrival=arrival, churn=churn,
    )
    tap = IssueTap(network, swarm)
    heap_pushes = []
    heappush = heapq.heappush

    def counting_heappush(heap, item):
        if heap is swarm._heap:
            heap_pushes.append(item)
        heappush(heap, item)

    monkeypatch.setattr(swarm_module, "heapq", types.SimpleNamespace(
        heappush=counting_heappush, heappop=heapq.heappop))
    swarm.on_start()
    env.run(until=3.0)
    return swarm, heap_pushes, tap.trace


@pytest.mark.parametrize("curve", sorted(CURVES))
def test_fifo_and_heap_pop_in_the_reference_heap_order(curve, monkeypatch):
    swarm, heap_pushes, trace = _run(monkeypatch, ClientSwarm, CURVES[curve])
    _, _, reference = _run(monkeypatch, HeapWheelSwarm, CURVES[curve])
    assert trace == reference
    assert swarm.issued > 3 * CLIENTS  # clients fired, re-armed and fired again
    assert swarm._fifo_head < len(swarm._fifo_times)  # the FIFO holds re-arms
    assert heap_pushes  # churn reconnects use the heap, and so do rate rises
    if curve != "constant":
        # Out-of-order re-arms from the tick itself, not only reconnects.
        reconnects = swarm.env.metrics.counter("client.churn.reconnects").value
        assert len(heap_pushes) > reconnects


def test_clients_fired_together_rearm_in_index_order(monkeypatch):
    swarm, heap_pushes, trace = _run(
        monkeypatch, ClientSwarm, constant(600.0), stagger=False, churn=None)
    _, _, reference = _run(monkeypatch, HeapWheelSwarm, constant(600.0), stagger=False, churn=None)
    assert trace == reference
    assert swarm.issued > 3 * CLIENTS
    assert not heap_pushes  # a steady rate re-arms in order: the FIFO takes every one


def test_a_flash_crowd_with_churn_reruns_to_the_same_trace(monkeypatch):
    """The same run issues the same trace, and the crowd raises the issue rate."""
    _, _, first = _run(monkeypatch, ClientSwarm, CURVES["flash-crowd"])
    _, _, second = _run(monkeypatch, ClientSwarm, CURVES["flash-crowd"])
    assert first == second
    onset = 0.6
    times = [entry[5] for entry in first]
    before = sum(1 for t in times if t < onset)
    after = sum(1 for t in times if onset <= t < 2 * onset)
    assert after > before

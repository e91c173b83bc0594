"""Differential proof: a ClientSwarm is bit-identical to individual clients.

The keystone suite of the flyweight workload engine: ``ClientSwarm(n=K)``
with port addressing and ``STAGGER`` off must emit a command stream
bit-identical to ``K`` individual fixed-rate client actors
(``tests/reference/open_loop.py``) — same seeds, same ``created_at``s, same
delivery order through a real MRP-Store service — with batching off and on,
with multi-partition scans, and for one client on a remote site (Figure 7's
shape); and the shared-endpoint addressing mode must produce the same
workload trace as the ports mode.

Methodology: every ``network.send`` is tapped (requests *and* replica
responses), so the comparison covers the full externally visible timeline —
issue order, routing, per-command ids and timestamps, and the order in which
replicas answered (i.e. the service's delivery order).
"""

import heapq
import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.swarm import ChurnSpec, ClientSwarm
from repro.kvstore import MRPStoreService
from repro.kvstore.client import MRPStoreCommands, kv_request_factory
from repro.kvstore.partitioning import HashPartitioner
from repro.net.message import ClientRequest, ClientResponse
from repro.sim.topology import ec2_global
from repro.workloads.arrival import constant
from repro.workloads.ycsb import RECORD_BYTES, YCSB_WORKLOADS, YCSBWorkload, ycsb_key
from tests.conftest import IssueTap
from tests.reference.open_loop import OpenLoopClient

# Every comparison is sub-second (the whole module takes about a second), so
# all of them run in tier 1.

PARTITIONS = [0, 1]
RECORDS = 200
#: The service's site and the remote client site of Figure 7's shape.
SERVICE_SITE, REMOTE_SITE = "us-west-2", "eu-west-1"


def _build_service(seed, batching, jitter=0.05, remote=False):
    config = MultiRingConfig(
        batching_enabled=batching,
        batch_max_delay=0.0005,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    topology = ec2_global([SERVICE_SITE, REMOTE_SITE]) if remote else None
    system = AtomicMulticast(seed=seed, config=config, jitter_fraction=jitter,
                             topology=topology)
    service = MRPStoreService(
        system,
        partition_groups=PARTITIONS,
        acceptors_per_partition=3,
        replicas_per_partition=2,
        global_ring_id=None,
    )
    service.preload({ycsb_key(i): RECORD_BYTES for i in range(RECORDS)})
    return system, service.frontend_map()


def _factory_for(seed, index, workload="F"):
    """Per-client request factory; identical streams for identical (seed, index)."""
    generator = YCSBWorkload(
        YCSB_WORKLOADS[workload],
        record_count=RECORDS,
        rng=random.Random(seed * 7919 + index),
    )
    return kv_request_factory(MRPStoreCommands(HashPartitioner(PARTITIONS)), generator)


def _tap_network(system):
    """Log every client request and replica response crossing the network."""
    log = []
    original = system.network.send

    def wrapped(src, dst, message):
        if isinstance(message, ClientRequest):
            c = message.command
            log.append(
                ("REQ", src, dst, c.op, tuple(c.args), c.group_id,
                 c.command_id, c.created_at, message.created_at)
            )
        elif isinstance(message, ClientResponse):
            log.append(("RESP", src, dst, message.request_id, message.group_id))
        original(src, dst, message)

    system.network.send = wrapped
    return log


def _latency_state(system):
    """All client-side latency recorders' raw sample lists, by name."""
    registry = system.env.metrics
    return {
        name: list(recorder._samples)
        for name, recorder in registry._latencies.items()
        if name.startswith("client.latency")
    }


def _run_open_actors(seed, k, rate_each, until, jitter=0.05, batching=False,
                     workload="F", remote=False):
    system, frontends = _build_service(seed, batching, jitter, remote)
    clients = [
        OpenLoopClient(
            system.env, f"swarm.{i}", frontends, _factory_for(seed, i, workload),
            rate_per_second=rate_each, site=REMOTE_SITE if remote else "dc1",
        )
        for i in range(k)
    ]
    log = _tap_network(system)
    system.start()
    system.run(until=until)
    return {
        "log": log,
        "latencies": _latency_state(system),
        "issued": [c._issued for c in clients],
        "completed": [c.completed for c in clients],
    }


def _run_open_swarm(seed, k, aggregate_rate, until, jitter=0.05, swarm_cls=ClientSwarm,
                    stagger=False, churn=None, batching=False, workload="F",
                    remote=False, shared=False):
    system, frontends = _build_service(seed, batching, jitter, remote)
    factories = [_factory_for(seed, i, workload) for i in range(k)]
    # A test sets the class constants on a subclass of its own.
    constants = {"STAGGER": stagger}
    if shared:
        constants["PORT_ADDRESSING_LIMIT"] = 0
    swarm = type(swarm_cls.__name__, (swarm_cls,), constants)(
        system.env,
        "swarm",
        frontends,
        lambda index, sequence: factories[index](sequence),
        clients=k,
        arrival=constant(aggregate_rate),
        site=REMOTE_SITE if remote else "dc1",
        churn=churn,
    )
    issues = IssueTap(system.network, swarm)
    log = _tap_network(system)
    system.start()
    system.run(until=until)
    return {
        "log": log,
        "latencies": _latency_state(system),
        "issued": [swarm._issued[i] for i in range(k)],
        "completed": [swarm._completed[i] for i in range(k)],
        "trace": issues.trace,
        "wheel": len(swarm._wheel),
        "outstanding": swarm.outstanding,
    }


def _assert_identical(reference, swarm):
    assert reference["log"] == swarm["log"]
    assert reference["latencies"] == swarm["latencies"]
    assert reference["issued"] == swarm["issued"]
    assert reference["completed"] == swarm["completed"]
    assert sum(reference["completed"]) > 0  # the runs actually did work


class TestOpenLoopDifferential:
    def test_bit_identical_open_loop(self):
        # Aggregate 240 req/s over 3 clients == 80 req/s each; stagger off
        # replicates the simultaneous first fires of individual actors.
        reference = _run_open_actors(seed=21, k=3, rate_each=240.0 / 3, until=1.2)
        swarm = _run_open_swarm(seed=21, k=3, aggregate_rate=240.0, until=1.2)
        _assert_identical(reference, swarm)

    def test_bit_identical_batching_on(self):
        reference = _run_open_actors(seed=12, k=4, rate_each=100.0, until=1.4, batching=True)
        swarm = _run_open_swarm(seed=12, k=4, aggregate_rate=400.0, until=1.4, batching=True)
        _assert_identical(reference, swarm)

    def test_bit_identical_with_multi_group_scans(self):
        """Workload E: scans await responses from several partitions."""
        reference = _run_open_actors(seed=14, k=3, rate_each=80.0, until=1.2, workload="E")
        swarm = _run_open_swarm(seed=14, k=3, aggregate_rate=240.0, until=1.2, workload="E")
        _assert_identical(reference, swarm)

    @pytest.mark.parametrize("stagger", [False, True])
    def test_one_remote_client_is_the_fixed_rate_actor(self, stagger):
        """Figure 7's shape: one client on another site than the service.

        With one client the first fire is one interval after start whether
        or not the swarm staggers, so both forms match the actor.
        """
        reference = _run_open_actors(seed=15, k=1, rate_each=80.0, until=1.2, remote=True)
        swarm = _run_open_swarm(seed=15, k=1, aggregate_rate=80.0, until=1.2, remote=True,
                                stagger=stagger)
        _assert_identical(reference, swarm)

    def test_outstanding_counts_the_requests_still_in_flight(self):
        run = _run_open_swarm(seed=21, k=3, aggregate_rate=2400.0, until=0.31)
        assert run["outstanding"] == sum(run["issued"]) - sum(run["completed"]) > 0


class _MaterialisedWheel(ClientSwarm):
    """The wheel with one ``(time, index)`` tuple per client before the first
    request: what the cold cursor (``_cold_head``) replaces."""

    def on_start(self):
        super().on_start()
        while self._cold_head is not None:
            heapq.heappush(self._wheel, self._cold_head)
            self._cold_head = self._cold_entry(self._cold_head[1] + 1)


class TestWheelColdCursor:
    """Unfired clients are a cursor over an arithmetic sequence; pop order is
    the order of the heap that held one tuple per client."""

    @pytest.mark.parametrize("stagger", [False, True])
    @pytest.mark.parametrize("churn", [None, ChurnSpec(rate=40.0, downtime=0.05)])
    def test_cursor_pops_in_heap_order(self, stagger, churn):
        arguments = dict(seed=23, k=12, aggregate_rate=60.0, until=0.9, stagger=stagger,
                         churn=churn)
        cursor = _run_open_swarm(**arguments)
        heap = _run_open_swarm(swarm_cls=_MaterialisedWheel, **arguments)
        for field in ("log", "latencies", "issued", "completed", "trace"):
            assert cursor[field] == heap[field], field
        assert sum(cursor["issued"]) > 12  # clients fired, re-armed and fired again

    def test_only_clients_that_fired_hold_a_wheel_entry(self):
        early = _run_open_swarm(seed=23, k=50, aggregate_rate=50.0, until=0.3, stagger=True)
        assert sum(early["issued"]) == early["wheel"] < 50
        assert _run_open_swarm(seed=23, k=50, aggregate_rate=50.0, until=0.3, stagger=True,
                               swarm_cls=_MaterialisedWheel)["wheel"] == 50


class TestAddressingModes:
    def test_shared_endpoint_matches_ports_trace(self):
        """Shared addressing must reproduce the ports-mode workload exactly.

        Jitter is disabled: the shared endpoint funnels every client through
        one connection whose FIFO clamp would interleave jitter differently.
        """
        arguments = dict(seed=31, k=4, aggregate_rate=320.0, until=1.2, jitter=0.0)
        ports = _run_open_swarm(**arguments)
        shared = _run_open_swarm(shared=True, **arguments)
        # The trace captures (index, sequence, op, args, group, created_at):
        # everything but the addressing-dependent identity.
        assert ports["trace"] == shared["trace"]
        assert ports["latencies"] == shared["latencies"]
        assert ports["issued"] == shared["issued"]
        assert ports["completed"] == shared["completed"]
        assert sum(ports["completed"]) > 0

    def test_swarm_rerun_is_deterministic(self):
        first = _run_open_swarm(seed=32, k=3, aggregate_rate=240.0, until=1.0)
        second = _run_open_swarm(seed=32, k=3, aggregate_rate=240.0, until=1.0)
        assert first["log"] == second["log"]
        assert first["trace"] == second["trace"]
        assert first["latencies"] == second["latencies"]

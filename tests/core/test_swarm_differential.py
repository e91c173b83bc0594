"""Differential proof: a ClientSwarm is bit-identical to individual clients.

The keystone suite of the flyweight workload engine: ``ClientSwarm(n=K)``
with port addressing must emit a command stream bit-identical to ``K``
individual client actors — same seeds, same ``created_at``s, same delivery
order through a real MRP-Store service — with batching off and on, for
closed- and open-loop clients, and the shared-endpoint addressing mode must
produce the same workload trace as the ports mode.

Methodology: every ``network.send`` is tapped (requests *and* replica
responses), so the comparison covers the full externally visible timeline —
issue order, routing, per-command ids and timestamps, and the order in which
replicas answered (i.e. the service's delivery order).
"""

import heapq
import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import ClosedLoopClient, OpenLoopClient
from repro.core.swarm import ChurnSpec, ClientSwarm
from repro.kvstore import MRPStoreService
from repro.kvstore.client import MRPStoreCommands, kv_request_factory
from repro.kvstore.partitioning import HashPartitioner
from repro.net.message import ClientRequest, ClientResponse
from repro.workloads.arrival import constant
from repro.workloads.ycsb import RECORD_BYTES, YCSB_WORKLOADS, YCSBWorkload, ycsb_key
from tests.conftest import IssueTap

# The multi-second comparisons are slow-marked: CI runs them in their own step
# ("Swarm differential", ``-m slow``); the sub-second open-loop and wheel
# cases stay in tier 1, so each test runs once per CI run.

PARTITIONS = [0, 1]
RECORDS = 200


def _build_service(seed, batching, jitter=0.05):
    config = MultiRingConfig(
        batching_enabled=batching,
        batch_max_bytes=2048,
        batch_max_delay=0.0005,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=seed, config=config, jitter_fraction=jitter)
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


def _run_actors(seed, batching, k, concurrency, until, jitter=0.05, workload="F"):
    system, frontends = _build_service(seed, batching, jitter)
    clients = [
        ClosedLoopClient(
            system.env, f"cl{i}", frontends, _factory_for(seed, i, workload),
            concurrency=concurrency,
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


def _run_swarm(seed, batching, k, concurrency, until, jitter=0.05,
               addressing="ports", workload="F"):
    system, frontends = _build_service(seed, batching, jitter)
    factories = [_factory_for(seed, i, workload) for i in range(k)]
    swarm = ClientSwarm(
        system.env,
        "swarm",
        frontends,
        lambda index, sequence: factories[index](sequence),
        clients=k,
        concurrency=concurrency,
        addressing=addressing,
        port_names=[f"cl{i}" for i in range(k)] if addressing == "ports" else None,
        sketch=None,
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
    }


def _run_open_actors(seed, k, rate_each, until, jitter=0.05):
    system, frontends = _build_service(seed, batching=False, jitter=jitter)
    clients = [
        OpenLoopClient(
            system.env, f"cl{i}", frontends, _factory_for(seed, i),
            rate_per_second=rate_each,
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
                    stagger=False, churn=None):
    system, frontends = _build_service(seed, batching=False, jitter=jitter)
    factories = [_factory_for(seed, i) for i in range(k)]
    swarm = swarm_cls(
        system.env,
        "swarm",
        frontends,
        lambda index, sequence: factories[index](sequence),
        clients=k,
        mode="open",
        arrival=constant(aggregate_rate),
        stagger=stagger,
        addressing="ports",
        port_names=[f"cl{i}" for i in range(k)],
        churn=churn,
        sketch=None,
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


@pytest.mark.slow
class TestClosedLoopDifferential:
    def test_bit_identical_batching_off(self):
        reference = _run_actors(seed=11, batching=False, k=4, concurrency=1, until=1.4)
        swarm = _run_swarm(seed=11, batching=False, k=4, concurrency=1, until=1.4)
        _assert_identical(reference, swarm)

    def test_bit_identical_batching_on(self):
        reference = _run_actors(seed=12, batching=True, k=4, concurrency=1, until=1.4)
        swarm = _run_swarm(seed=12, batching=True, k=4, concurrency=1, until=1.4)
        _assert_identical(reference, swarm)

    def test_bit_identical_multiple_outstanding_per_client(self):
        reference = _run_actors(seed=13, batching=False, k=3, concurrency=2, until=1.2)
        swarm = _run_swarm(seed=13, batching=False, k=3, concurrency=2, until=1.2)
        _assert_identical(reference, swarm)

    def test_bit_identical_with_multi_group_scans(self):
        """Workload E: scans await responses from several partitions."""
        reference = _run_actors(
            seed=14, batching=False, k=3, concurrency=1, until=1.2, workload="E"
        )
        swarm = _run_swarm(
            seed=14, batching=False, k=3, concurrency=1, until=1.2, workload="E"
        )
        _assert_identical(reference, swarm)


class TestOpenLoopDifferential:
    def test_bit_identical_open_loop(self):
        # Aggregate 240 req/s over 3 clients == 80 req/s each; stagger off
        # replicates the simultaneous first fires of individual actors.
        reference = _run_open_actors(seed=21, k=3, rate_each=240.0 / 3, until=1.2)
        swarm = _run_open_swarm(seed=21, k=3, aggregate_rate=240.0, until=1.2)
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


@pytest.mark.slow
class TestAddressingModes:
    def test_shared_endpoint_matches_ports_trace(self):
        """Shared addressing must reproduce the ports-mode workload exactly.

        Jitter is disabled: the shared endpoint funnels every client through
        one connection whose FIFO clamp would interleave jitter differently.
        """
        ports = _run_swarm(
            seed=31, batching=False, k=4, concurrency=1, until=1.2,
            jitter=0.0, addressing="ports",
        )
        shared = _run_swarm(
            seed=31, batching=False, k=4, concurrency=1, until=1.2,
            jitter=0.0, addressing="shared",
        )
        # The trace captures (index, sequence, op, args, group, created_at):
        # everything but the addressing-dependent identity.
        assert ports["trace"] == shared["trace"]
        assert ports["latencies"] == shared["latencies"]
        assert ports["issued"] == shared["issued"]
        assert ports["completed"] == shared["completed"]
        assert sum(ports["completed"]) > 0

    def test_swarm_rerun_is_deterministic(self):
        first = _run_swarm(seed=32, batching=False, k=3, concurrency=1, until=1.0)
        second = _run_swarm(seed=32, batching=False, k=3, concurrency=1, until=1.0)
        assert first["log"] == second["log"]
        assert first["trace"] == second["trace"]
        assert first["latencies"] == second["latencies"]

"""Fast-path kernel tests: determinism against two anchors, and compaction.

The kernel (tuple heap entries, handle-free ``_post`` events, lazy
cancellation with compaction) fires a seeded random schedule / cancel
program exactly like the plain-rules ``tests/reference/kernel.py``.
Whole deployments (kernel + network + protocol stack) reproduce the delivery
logs — order *and* timestamps — whose digests are committed in
``tests/golden/exact.json``; a PR that moves one says which modelled
behaviour changed and re-pins with ``python -m tests.golden.repin``.
"""

import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from repro.sim.disk import StorageMode
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from tests import golden
from tests.conftest import SendTap, mutate
from tests.reference.kernel import ReferenceKernel


def _random_kernel_trace(sim, seed: int, operations: int = 400, grid: bool = True):
    """Drive a seeded random schedule/cancel program; return the firing log.

    With ``grid`` the delays sit on a 0.1 s grid, so many events share a
    timestamp and the ``seq`` tie-break decides the order;
    without it they are continuous, so the heap orders arbitrary floats.
    """
    rng = random.Random(seed)
    log = []
    handles = []

    def delay_below(top):
        return rng.randrange(top * 10) / 10 if grid else rng.uniform(0.0, top)

    def fire(tag):
        log.append((sim.now, tag))
        if rng.random() < 0.4:
            handles.append(sim.call_later(delay_below(2), fire, f"{tag}.n"))
        if handles and rng.random() < 0.3:
            handles[rng.randrange(len(handles))].cancel()

    for i in range(operations):
        handles.append(sim.call_later(delay_below(5), fire, str(i)))
    sim.run(until=10.0)
    return log


def _random_float_trace(sim, seed: int):
    """:func:`_random_kernel_trace` with continuous, all-distinct delays."""
    return _random_kernel_trace(sim, seed, grid=False)


def _post_heavy_trace(sim, seed: int, operations: int = 300):
    """A workload dominated by ``_post`` entries sharing one callback.

    Mimics the network's delivery pattern — one callback, the destination in
    the first argument — interleaved with ``call_later`` events on the same
    0.1 s grid, so the two heap-entry layouts meet at equal timestamps.
    """
    rng = random.Random(seed)
    log = []
    targets = ["conn-a", "conn-b", "conn-c"]

    def deliver(target, tag):
        log.append(("deliver", sim.now, target, tag))
        if rng.random() < 0.3:
            sim._post(rng.randrange(5) / 10, deliver, (rng.choice(targets), f"{tag}.n"))

    def fire(tag):
        log.append(("fire", sim.now, tag))

    for i in range(operations):
        roll = rng.random()
        delay = rng.randrange(20) / 10
        if roll < 0.7:
            sim._post(delay, deliver, (rng.choice(targets), str(i)))
        else:
            sim.call_later(delay, fire, str(i))
    sim.run(until=5.0)
    return log


PROGRAMS = [_random_kernel_trace, _random_float_trace, _post_heavy_trace]


class TestReferenceKernelDifferential:
    @pytest.mark.parametrize("program", PROGRAMS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_random_workload_fires_like_the_plain_heapq(self, program, seed):
        shipped, plain = Simulator(), ReferenceKernel()
        log = program(shipped, seed)
        assert log == program(plain, seed)
        assert len(log) > 0
        assert shipped.now == plain.now
        assert shipped.processed_events == plain.processed_events

    def test_mutant_without_the_seq_tie_break_is_caught(self, monkeypatch):
        """Entries of one timestamp then order by their arguments, silently."""
        monkeypatch.setattr(
            Simulator, "_post", mutate(Simulator._post, ("delay, seq,", "delay, 0,"))
        )
        assert _post_heavy_trace(Simulator(), 7) != _post_heavy_trace(ReferenceKernel(), 7)

    def test_post_orders_like_schedule(self):
        """_post entries interleave with call_later entries in seq order."""
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "a")
        sim._post(1.0, fired.append, ("b",))
        sim.call_later(1.0, fired.append, "c")
        sim._post(0.5, fired.append, ("early",))
        sim.run()
        assert fired == ["early", "a", "b", "c"]

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(Exception):
            sim._post(-0.1, lambda: None, ())

    def test_step_executes_post_entries(self):
        sim = Simulator()
        fired = []
        sim._post(0.2, fired.append, ("x",))
        assert sim.step() is True
        assert fired == ["x"]
        assert sim.now == 0.2


class _Recorder(MultiRingProcess):
    def __init__(self, env, name):
        super().__init__(env, name)
        self.delivered = []

    def on_deliver(self, group_id, instance, value):
        self.delivered.append((group_id, instance, value.payload, round(self.now, 12)))
        if len(self.delivered) < 40:
            self.multicast(0, payload=(self.name, len(self.delivered)), size_bytes=512)


def _run_stack(seed: int):
    """Per-process delivery logs of a small self-propelling ring workload."""
    config = MultiRingConfig(
        storage_mode=StorageMode.IN_MEMORY,
        batching_enabled=False,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(config=config, seed=seed)
    processes = [_Recorder(system.env, f"n{i}") for i in range(3)]
    system.create_ring(0, [(p.name, "pal") for p in processes])
    system.start()
    for p in processes:
        p.multicast(0, payload=(p.name, 0), size_bytes=512)
    system.run(until=2.0)
    return [p.delivered for p in processes]


STACK_SEEDS = [3, 11, 99]
#: Seeded bug: back-to-back messages on one link no longer queue behind each other.
NO_FIFO_OCCUPANCY = ("start = free_at if free_at > now else now", "start = now")


class TestGoldenStack:
    @pytest.mark.parametrize("seed", STACK_SEEDS)
    def test_delivery_sequences_and_times_match_the_golden(self, seed):
        """Same seed → the committed delivery sequence, timestamps included."""
        deliveries = _run_stack(seed)
        assert golden.digest(deliveries) == golden.load()["stack"][str(seed)]
        assert all(len(d) > 0 for d in deliveries)

    def test_mutant_without_fifo_occupancy_is_caught(self, monkeypatch):
        monkeypatch.setattr(Network, "send", mutate(Network.send, NO_FIFO_OCCUPANCY))
        assert golden.digest(_run_stack(3)) != golden.load()["stack"]["3"]

    def test_all_learners_agree(self):
        deliveries = _run_stack(5)
        orders = [[(g, i, p) for g, i, p, _ in d] for d in deliveries]
        assert orders[0] == orders[1] == orders[2]


class TestCancellationCompaction:
    def test_cancelled_events_are_compacted_out_of_the_heap(self):
        sim = Simulator()
        handles = [sim.call_later(10.0 + i, lambda: None) for i in range(1000)]
        survivor_fired = []
        sim.call_later(5.0, survivor_fired.append, "ok")
        for h in handles:
            h.cancel()
        # Compaction keeps the heap bounded by the trigger threshold instead
        # of letting all 1000 dead entries pile up for lazy pop-skipping.
        assert len(sim._queue) <= 2 * Simulator.COMPACT_MIN_CANCELLED
        sim.run()
        assert survivor_fired == ["ok"]
        assert sim.processed_events == 1

    def test_compaction_preserves_order_of_survivors(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(500):
            h = sim.call_later(float(i), fired.append, i)
            if i % 10 == 0:
                keep.append(i)
            else:
                h.cancel()
        sim.run()
        assert fired == keep

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        fired = []
        handles = [sim.call_later(float(i), fired.append, i) for i in range(100)]
        sim.run()
        for h in handles:
            h.cancel()  # cancelling after the fact is a no-op on the queue
        assert fired == list(range(100))
        # Fired events must not count toward the compaction trigger.
        assert sim._cancelled == 0
        later = sim.call_later(1.0, fired.append, "later")
        sim.run()
        assert fired[-1] == "later"


def _run_faulted_stack(seed: int):
    """A two-site ring workload with partitions and isolation active mid-run.

    Exercises the `_has_faults` guard: sends issued while links are cut or a
    site is isolated are dropped before the timing arithmetic, and delivery
    times of everything else are unchanged.
    """
    from repro.sim.topology import Topology

    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    topo.add_site("a")
    topo.add_site("b")
    topo.set_link("a", "b", one_way_latency=0.002, bandwidth_bps=1e9)
    config = MultiRingConfig(
        storage_mode=StorageMode.IN_MEMORY,
        batching_enabled=False,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(topology=topo, config=config, seed=seed)
    processes = [
        _Recorder(system.env, f"n{i}") for i in range(4)
    ]
    for process, site in zip(processes, ["a", "a", "b", "b"]):
        process.site = site
    system.create_ring(0, [(p.name, "pal") for p in processes])
    network = system.network
    tap = SendTap(network)
    sim = system.env.simulator
    sim.call_later(0.011, network.partition, "a", "b")
    sim.call_later(0.016, network.heal, "a", "b")
    sim.call_later(0.020, network.isolate_site, "b")
    sim.call_later(0.024, network.rejoin_site, "b")
    sim.call_later(0.027, network.partition, "b", "a", False)  # one-way cut
    sim.call_later(0.031, network.heal_all)
    system.start()
    for p in processes:
        p.multicast(0, payload=(p.name, 0), size_bytes=512)
    rng = random.Random(seed)
    for i in range(60):
        proposer = processes[rng.randrange(4)]
        sim.call_later(
            0.0005 * i,
            lambda p=proposer, i=i: p.multicast(0, payload=("x", i), size_bytes=256),
        )
    system.run(until=0.5)
    return (
        [p.delivered for p in processes],
        (tap.messages, network.stats.dropped),
    )


FAULT_SEEDS = [2, 13, 77]


def _faulted_stack_exact(seed: int) -> dict:
    """What the golden file keeps of one faulted run: log digest, message and drop counts."""
    deliveries, (messages, dropped) = _run_faulted_stack(seed)
    assert any(len(d) > 0 for d in deliveries)
    return {"deliveries": golden.digest(deliveries), "messages": messages, "dropped": dropped}


class TestGoldenFaultPath:
    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_partitions_and_isolation_match_the_golden(self, seed):
        """Same seed, faults active → the committed deliveries AND message / drop counts."""
        exact = _faulted_stack_exact(seed)
        assert exact == golden.load()["faulted_stack"][str(seed)]
        assert exact["dropped"] > 0, "the fault window dropped nothing — dead test"

    def test_fault_flag_tracks_partitions(self):
        from repro.sim.topology import Topology
        from repro.sim.actor import Environment

        topo = Topology()
        topo.add_site("a")
        topo.add_site("b")
        topo.set_link("a", "b", 0.001)
        network = Network(Environment(seed=1), topo)
        assert not network._has_faults
        network.partition("a", "b")
        assert network._has_faults
        network.heal("a", "b")
        assert not network._has_faults
        network.isolate_site("a")
        assert network._has_faults
        network.heal_all()
        assert not network._has_faults


def _run_network_times():
    """Jittered sends both ways over a WAN link; returns every delivery time, exactly."""
    from repro.net.message import Message
    from repro.sim.actor import Actor, Environment
    from repro.sim.topology import ec2_global

    class Sink(Actor):
        def __init__(self, env, name, site):
            super().__init__(env, name, site)
            self.received = []

        def on_message(self, sender, message):
            self.received.append((sender, message.payload_bytes, self.now))

    env = Environment(seed=7)
    Network(env, ec2_global(["us-west-2", "us-east-1"]), jitter_fraction=0.05)
    a = Sink(env, "a", "us-west-2")
    b = Sink(env, "b", "us-east-1")
    for i in range(50):
        a.send("b", Message(payload_bytes=1000 + i))
        b.send("a", Message(payload_bytes=10 * i))
    env.simulator.run()
    return a.received, b.received


class TestGoldenNetworkTimes:
    def test_jittered_delivery_times_match_the_golden(self):
        """Bit-level: latency + transmission + jitter + FIFO occupancy per send."""
        assert golden.digest(_run_network_times()) == golden.load()["network_times"]

    def test_mutant_without_fifo_occupancy_is_caught(self, monkeypatch):
        monkeypatch.setattr(Network, "send", mutate(Network.send, NO_FIFO_OCCUPANCY))
        assert golden.digest(_run_network_times()) != golden.load()["network_times"]

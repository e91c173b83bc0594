"""The run loops' GC pause: its contract, and the premise it rests on.

Contract — ``Simulator.run`` / ``run_window`` and ``run_sharded`` pause the
cyclic collector while they execute and hand it back exactly as they found
it: enabled stays enabled (on return and when a callback raises), disabled
stays disabled, and a nested run does not switch it back on before the
outermost one exits.

Backlog — a finished deployment is cyclic by design, and a caller running
point after point may allocate too little between runs for the collector's
thresholds to fire; the objects that outlived their pause buy a collection at
the next entry, so dropped deployments do not pile up.

Premise — a run creates no reference cycles, so pausing the collector leaks
nothing.  The guard runs a batched fig3 point and an MRP-Store swarm point
with the collector off and the deployment held alive, then asks
``gc.collect()`` what it found: anything unreachable was created by the run's
hot path, and fails the test instead of leaking for the length of a run.
"""

import gc
import weakref

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.bench.fig4_ycsb import run_fig4_point
from repro.core import AtomicMulticast
from repro.sim import Actor, Environment, Network, ShardHarness, ShardSpec, Topology, run_sharded
from repro.sim.kernel import Simulator, gc_paused
from repro.sim.metrics import ThroughputTracker
from repro.storage.wal import StorageMode
from repro.workloads.arrival import constant


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the collector in the given state; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def _boom():
    raise RuntimeError("callback failed")


# ------------------------------------------------------------------ contract
#: Every way into the kernel's run loops (default, general, windowed).
ENTRIES = {
    "run": lambda sim: sim.run(),
    "run_max_events": lambda sim: sim.run(max_events=5),
    "run_window": lambda sim: sim.run_window(1.0),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_simulator_pauses_and_restores(collector, entry):
    sim = Simulator()
    seen = []
    sim.call_later(0.1, lambda: seen.append(gc.isenabled()))
    ENTRIES[entry](sim)
    assert seen == [False]
    assert gc.isenabled() == collector


@pytest.mark.parametrize("entry", ENTRIES)
def test_simulator_restores_when_a_callback_raises(collector, entry):
    sim = Simulator()
    sim.call_later(0.1, _boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        ENTRIES[entry](sim)
    assert gc.isenabled() == collector


def test_nested_pause_does_not_reenable_before_the_outermost_exit(collector):
    inner = Simulator()
    inner.call_later(0.1, lambda: None)
    outer = Simulator()
    seen = []

    def run_inner():
        inner.run()
        seen.append(gc.isenabled())

    outer.call_later(0.1, run_inner)
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        outer.run()
        assert not gc.isenabled()
    assert seen == [False]
    assert gc.isenabled() == collector


class _GcProbe(Actor):
    def __init__(self, env, name, fail):
        super().__init__(env, name)
        self.fail = fail
        self.seen = []

    def on_start(self):
        self.env.simulator.call_later(0.001, self._tick)

    def _tick(self):
        self.seen.append(gc.isenabled())
        if self.fail:
            _boom()


class _GcProbeHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):
        return self.actor.seen + [gc.isenabled()]


def _build_probe_shard(fail):
    env = Environment(seed=1)
    topo = Topology()
    topo.add_site("dc1")
    Network(env, topo, jitter_fraction=0.0)
    return _GcProbeHarness(env, _GcProbe(env, "probe", fail))


def test_run_sharded_pauses_and_restores(collector):
    run = run_sharded([ShardSpec(0, _build_probe_shard, False)], until=0.01, workers=1)
    assert run.results[0] == [False, False]
    assert gc.isenabled() == collector


def test_run_sharded_restores_when_a_shard_raises(collector):
    with pytest.raises(RuntimeError, match="callback failed"):
        run_sharded([ShardSpec(0, _build_probe_shard, True)], until=0.01, workers=1)
    assert gc.isenabled() == collector


# ------------------------------------------------------------------- backlog
class _Node:
    pass


def _dropped_cycle():
    node = _Node()
    node.me = node
    return weakref.ref(node)


def test_backlog_buys_one_collection_at_the_next_entry(collector, monkeypatch):
    monkeypatch.setattr(gc_paused, "_backlog", gc_paused.BACKLOG)
    garbage = _dropped_cycle()
    with gc_paused():
        # Never behind the back of a caller who switched the collector off.
        assert (garbage() is None) == collector
    assert (gc_paused._backlog < gc_paused.BACKLOG) == collector


def test_objects_outliving_a_pause_feed_the_backlog(monkeypatch):
    monkeypatch.setattr(gc_paused, "_backlog", 0)
    kept = []
    sim = Simulator()
    sim.call_later(0.1, lambda: kept.extend([] for _ in range(5000)))
    sim.run()
    assert 5000 <= gc_paused._backlog < gc_paused.BACKLOG


# ------------------------------------------------------------------- premise
def _fig3_batched_smoke():
    return run_fig3_point(
        2048, StorageMode.IN_MEMORY, warmup=0.02, duration=0.08,
        threads_per_proposer=40, batching_enabled=True,
    )


def _fig4_store_swarm_smoke():
    return run_fig4_point(
        "mrp-store", "A", warmup=0.02, duration=0.1, record_count=500,
        client_engine="swarm", simulated_users=2000,
        arrival=constant(5000.0), slo={"gold": 0.02},
    )


def _unreachable_after(point, monkeypatch):
    """Objects ``gc.collect()`` finds unreachable after ``point()`` ran GC-off.

    The deployment is kept alive (its actor ↔ environment references are
    cycles by design, and tearing it down is not the run's hot path), so
    whatever the collector finds was created *and dropped* during the run.
    """
    systems = []
    start = AtomicMulticast.start

    def keep_alive(self):
        systems.append(self)
        return start(self)

    monkeypatch.setattr(AtomicMulticast, "start", keep_alive)
    gc.collect()
    with gc_paused():
        point()
        assert systems[0].env.simulator.processed_events > 1000
        return gc.collect()


@pytest.mark.parametrize("point", [_fig3_batched_smoke, _fig4_store_swarm_smoke])
def test_a_run_creates_no_reference_cycles(point, monkeypatch):
    point()  # warm-up: imports and lazy set-up may legitimately create cycles
    assert _unreachable_after(point, monkeypatch) == 0


def test_point_after_point_does_not_pile_up_deployments(monkeypatch):
    monkeypatch.setattr(gc_paused, "BACKLOG", 1000)  # a smoke run counts as big
    monkeypatch.setattr(gc_paused, "_backlog", 0)
    deployments = []
    start = AtomicMulticast.start

    def watch(self):
        deployments.append(weakref.ref(self.env))
        return start(self)

    monkeypatch.setattr(AtomicMulticast, "start", watch)
    for _ in range(4):
        _fig3_batched_smoke()
    # Each run's entry collected the deployment the previous point dropped.
    assert [ref() is None for ref in deployments[:-1]] == [True, True, True]


def test_dropped_deployments_alive_are_bounded_by_the_backlog(monkeypatch):
    # The backlog counts GC-tracked objects, and since the columnar slab a
    # deployment has about a quarter of them (no object per acceptor-instance)
    # — one point no longer buys a collection on its own.  What a
    # point-after-point loop carries is still bounded: dropped deployments
    # live until their tracked objects add up to BACKLOG (the real one), which
    # is about as many bytes as it was before the slab.
    monkeypatch.setattr(gc_paused, "_backlog", 0)
    deployments = []
    start = AtomicMulticast.start

    def watch(self):
        deployments.append(weakref.ref(self.env))
        return start(self)

    monkeypatch.setattr(AtomicMulticast, "start", watch)
    dropped_alive = []

    def point():
        run_fig3_point(2048, StorageMode.IN_MEMORY, warmup=0.02, duration=0.05)
        dropped_alive.append(sum(ref() is not None for ref in deployments[:-1]))

    point()
    per_point = gc_paused._backlog
    assert 0 < per_point < gc_paused.BACKLOG  # the premise: a point alone is under the bar
    bound = gc_paused.BACKLOG // per_point + 1
    # Enough points that a loop which never collected would pass the bound.
    points = bound + 3
    for _ in range(points - 1):
        point()
    assert max(dropped_alive) <= bound < points - 1  # fewer than a loop that never collects


def test_the_guard_sees_a_cycle_on_the_hot_path(monkeypatch):
    record = ThroughputTracker.record

    def leaky_record(self, units=1.0):
        cycle = []
        cycle.append(cycle)
        record(self, units)

    monkeypatch.setattr(ThroughputTracker, "record", leaky_record)
    assert _unreachable_after(_fig3_batched_smoke, monkeypatch) > 0

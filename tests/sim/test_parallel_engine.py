"""Unit tests of the parallel engine (`repro.sim.parallel`).

The load-bearing properties: shards exchange no messages — a send to an
actor that only another shard hosts raises, naming both actors — and a
sharded run is bit-identical for every worker count and, with deterministic
latencies, to running the merged deployment on one shared simulator.
Builders live at module level so the specs survive the ``multiprocessing``
boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil

import pytest

from repro.net.message import Message
from repro.sim import Actor, Environment, Network, ShardHarness, ShardSpec, Topology, run_sharded
from repro.sim.kernel import SimulationError, Simulator


@dataclass(slots=True)
class Probe(Message):
    """Every test message here: charged as 128 wire bytes, carrying a small ``body``."""

    payload_bytes: int = 128 - Message.OVERHEAD_BYTES
    body: dict = field(default_factory=dict)


LINK_LATENCY = 0.010
ROUNDS = 30
HORIZON = 0.5
SHARDS = 2


def shard_topology() -> Topology:
    """Sites ``a<i>`` and ``b<i>`` per shard, linked within a shard only.

    Channels are per directed site pair, so shards that share no site share
    no channel occupancy: the merged run times every message as its shard
    does.
    """
    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    for index in range(SHARDS):
        topo.add_site(f"a{index}")
        topo.add_site(f"b{index}")
        topo.set_link(f"a{index}", f"b{index}", one_way_latency=LINK_LATENCY, bandwidth_bps=1e9)
    return topo


class Pinger(Actor):
    """Bounces a counter to a peer; logs (time, value) on every receipt."""

    def __init__(self, env, name, site, peer, rounds, opens):
        super().__init__(env, name, site)
        self.peer = peer
        self.rounds = rounds
        self.opens = opens
        self.log = []

    def on_start(self):
        if self.opens:
            self.send(self.peer, Probe(body={"n": 0}))

    def on_message(self, sender, message):
        self.log.append((round(self.now, 9), message.body["n"]))
        if message.body["n"] < self.rounds:
            self.send(sender, Probe(body={"n": message.body["n"] + 1}))


def add_pingers(env, index):
    """Shard ``index``'s ping-pong pair, ``p<i>a`` at ``a<i>`` and ``p<i>b`` at ``b<i>``."""
    return [
        Pinger(env, f"p{index}a", f"a{index}", f"p{index}b", ROUNDS, opens=True),
        Pinger(env, f"p{index}b", f"b{index}", f"p{index}a", ROUNDS, opens=False),
    ]


class ActorsHarness(ShardHarness):
    """Starts its actors; reports their logs and the network's drop count."""

    def __init__(self, env, actors):
        super().__init__(env)
        self.actors = actors

    def start(self):
        for actor in self.actors:
            actor.on_start()

    def finalize(self):
        return {
            "logs": {actor.name: actor.log for actor in self.actors},
            "dropped": self.env.network.stats.dropped,
        }


def build_pinger_shard(index):
    env = Environment(seed=7)
    Network(env, shard_topology(), jitter_fraction=0.0)
    return ActorsHarness(env, add_pingers(env, index))


def pinger_specs():
    return [ShardSpec(i, build_pinger_shard, i) for i in range(SHARDS)]


def run_merged_pingpong(until):
    """Every shard's actors on one shared simulator: the merged reference."""
    env = Environment(seed=7)
    network = Network(env, shard_topology(), jitter_fraction=0.0)
    pairs = [add_pingers(env, index) for index in range(SHARDS)]
    for pair in pairs:
        for actor in pair:
            actor.on_start()
    env.run(until=until)
    results = {
        index: {"logs": {actor.name: actor.log for actor in pair}, "dropped": 0}
        for index, pair in enumerate(pairs)
    }
    return results, env.simulator.processed_events, network.stats.dropped


class CountingActor(Actor):
    """Self-contained shard workload: periodic local ticks, no messages."""

    def __init__(self, env, name, ticks):
        super().__init__(env, name)
        self.remaining = ticks
        self.fired = []

    def on_start(self):
        self.env.simulator.call_later(0.001, self._tick)

    def _tick(self):
        self.fired.append(round(self.now, 9))
        self.remaining -= 1
        if self.remaining:
            self.env.simulator.call_later(0.001, self._tick)

    def on_message(self, sender, message):  # pragma: no cover - never called
        raise AssertionError("independent shard received a message")


class CountingHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):
        return self.actor.fired


def build_counting_shard(payload):
    env = Environment(seed=payload)
    topo = Topology()
    topo.add_site("dc1")
    Network(env, topo, jitter_fraction=0.0)
    actor = CountingActor(env, f"counter{payload}", ticks=50)
    return CountingHarness(env, actor)


# ---------------------------------------------------------------------------
# Independent shards equal the merged single-simulator run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("interval", [None, 0.01])
@pytest.mark.parametrize("workers", [1, 2])
def test_independent_shards_equal_the_merged_run(workers, interval):
    """Every delivery lands where one shared simulator puts it, windowed or not."""
    reference, merged_events, merged_dropped = run_merged_pingpong(HORIZON)
    assert merged_dropped == 0
    for result in reference.values():  # the whole ping-pong, in every shard
        assert sum(map(len, result["logs"].values())) == ROUNDS + 1
    run = run_sharded(pinger_specs(), until=HORIZON, workers=workers, segment_interval=interval)
    assert run.workers == workers
    assert run.results == reference
    assert run.total_events == merged_events
    # One cell per grid interval: work or not, a cell ends at every multiple.
    assert run.windows == (1 if interval is None else ceil(HORIZON / interval))


def test_independent_shards_single_window():
    seq = run_sharded(
        [ShardSpec(i, build_counting_shard, i) for i in range(3)], workers=1
    )
    par = run_sharded(
        [ShardSpec(i, build_counting_shard, i) for i in range(3)], workers=3
    )
    assert seq.windows == 1
    assert seq.results == par.results
    assert all(len(v) == 50 for v in seq.results.values())


# ---------------------------------------------------------------------------
# Refusal: a send to an actor only another shard hosts raises at the send
# ---------------------------------------------------------------------------

class Talker(Actor):
    """Sends one probe per plan ``(dst, at)`` (``at=None``: from ``on_start``)."""

    def __init__(self, env, name, plans):
        super().__init__(env, name, "a0")
        self.plans = plans
        self.log = []

    def on_start(self):
        for dst, at in self.plans:
            if at is None:
                self._send(dst)
            else:
                self.env.simulator.schedule(at, self._send, dst)  # on_start runs at t=0

    def _send(self, dst):
        self.send(dst, Probe(body={"from": self.name}))

    def on_message(self, sender, message):
        self.log.append((round(self.now, 9), sender))


def build_talk_shard(payload):
    """``payload`` maps each hosted actor name to its send plans."""
    env = Environment(seed=3)
    Network(env, shard_topology(), jitter_fraction=0.0)
    return ActorsHarness(env, [Talker(env, name, plans) for name, plans in payload.items()])


def talk_specs(*payloads):
    return [ShardSpec(i, build_talk_shard, payload) for i, payload in enumerate(payloads)]


@pytest.mark.parametrize("send_at", [None, 0.12], ids=["on_start", "mid_run"])
@pytest.mark.parametrize("interval", [None, 0.05])
@pytest.mark.parametrize("workers", [1, 2])
def test_send_to_an_actor_only_another_shard_hosts_raises(workers, interval, send_at):
    specs = talk_specs({"x0": [("x1", send_at)]}, {"x1": []})
    refused = "'x0' sent to 'x1', which only another shard hosts"
    if workers == 1:
        with pytest.raises(SimulationError, match=refused):
            run_sharded(specs, until=0.2, workers=1, segment_interval=interval)
    else:
        # The worker's failure carries the SimulationError and its text.
        with pytest.raises(RuntimeError, match="shard worker failed") as excinfo:
            run_sharded(specs, until=0.2, workers=2, segment_interval=interval)
        assert f"SimulationError: {refused}" in str(excinfo.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_send_to_a_name_no_shard_hosts_is_a_drop(workers):
    run = run_sharded(
        talk_specs({"x0": [("nobody", None), ("nobody", 0.12)]}, {"x1": []}),
        until=0.2, workers=workers, segment_interval=0.05,
    )
    assert run.results[0]["dropped"] == 2
    assert run.results[1]["dropped"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_mirrored_name_is_local_to_each_shard(workers):
    """A name several shards host (a shared learner's mirrors) is never refused:
    each shard's sends reach its own copy."""
    run = run_sharded(
        talk_specs(
            {"x0": [("mirror", None)], "mirror": []},
            {"x1": [("mirror", 0.12)], "mirror": []},
        ),
        until=0.2, workers=workers, segment_interval=0.05,
    )
    assert run.results[0]["logs"]["mirror"] == [(5.0155e-05, "x0")]
    assert run.results[1]["logs"]["mirror"] == [(0.120050155, "x1")]
    assert run.results[0]["dropped"] == run.results[1]["dropped"] == 0


# ---------------------------------------------------------------------------
# Validation and plumbing
# ---------------------------------------------------------------------------

class ResultlessHarness(ShardHarness):
    """Runs its actor but keeps :meth:`ShardHarness.finalize`'s default."""

    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()


def build_resultless_shard(payload):
    counting = build_counting_shard(payload)
    return ResultlessHarness(counting.env, counting.actor)


def test_a_harness_without_finalize_returns_none():
    run = run_sharded([ShardSpec(i, build_resultless_shard, i) for i in range(2)], workers=1)
    assert run.results == {0: None, 1: None}
    assert run.total_events == 2 * 50


def test_duplicate_shard_ids_rejected():
    with pytest.raises(ValueError, match="duplicate shard ids"):
        run_sharded([ShardSpec(0, build_counting_shard, 0),
                     ShardSpec(0, build_counting_shard, 1)])


def test_worker_count_clamped_to_shards():
    run = run_sharded([ShardSpec(0, build_counting_shard, 0)], workers=8)
    assert run.workers == 1


def test_worker_exception_surfaces():
    with pytest.raises(RuntimeError, match="shard worker failed"):
        run_sharded(
            [ShardSpec(i, _build_broken_shard, i) for i in range(2)], workers=2
        )


def _build_broken_shard(payload):
    raise RuntimeError(f"builder exploded for shard {payload}")


# ---------------------------------------------------------------------------
# Kernel window primitives
# ---------------------------------------------------------------------------

def test_run_window_lands_exactly_on_end():
    sim = Simulator()
    fired = []
    sim.call_later(0.5, fired.append, 1)
    sim.call_later(1.5, fired.append, 2)
    assert sim.run_window(1.0) == 1
    assert sim.now == 1.0
    assert fired == [1]
    assert sim.run_window(2.0) == 1
    assert sim.now == 2.0
    with pytest.raises(SimulationError):
        sim.run_window(1.0)


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    handle = sim.call_later(0.25, lambda: None)
    sim.call_later(0.75, lambda: None)
    assert sim.next_event_time() == 0.25
    handle.cancel()
    assert sim.next_event_time() == 0.75
    sim.run()
    assert sim.next_event_time() is None


# ---------------------------------------------------------------------------
# Bursty shards on the grid: idle stretches cost cells, never events
# ---------------------------------------------------------------------------

BURST_INTERVAL = 0.010
BURST_GAP = 0.4          # idle stretches 40x the interval
BURST_COUNT = 3
BURST_SIZE = 5
BURST_SPACING = 0.001
BURST_UNTIL = BURST_COUNT * BURST_GAP + 0.1


class BurstActor(Actor):
    """Fires short bursts at its in-shard peer, separated by long idle stretches."""

    def __init__(self, env, name, site, peer, fires):
        super().__init__(env, name, site)
        self.peer = peer
        self.fires = fires
        self.log = []

    def on_start(self):
        if not self.fires:
            return
        for burst in range(BURST_COUNT):
            for index in range(BURST_SIZE):
                self.env.simulator.schedule(  # on_start runs at t=0
                    burst * BURST_GAP + index * BURST_SPACING,
                    self._fire, burst, index,
                )

    def _fire(self, burst, index):
        self.send(self.peer, Probe(body={"burst": burst, "index": index}))

    def on_message(self, sender, message):
        self.log.append((round(self.now, 9), message.body["burst"], message.body["index"]))


def build_burst_shard(index):
    env = Environment(seed=13)
    Network(env, shard_topology(), jitter_fraction=0.0)
    return ActorsHarness(env, [
        BurstActor(env, f"burst{index}", f"a{index}", f"sink{index}", fires=True),
        BurstActor(env, f"sink{index}", f"b{index}", None, fires=False),
    ])


def burst_specs():
    return [ShardSpec(i, build_burst_shard, i) for i in range(SHARDS)]


@pytest.mark.parametrize("workers", [1, 2])
def test_bursts_on_the_grid_equal_the_single_window_run(workers):
    """Idle stretches 40x the interval still cost one cell per interval, and
    the cells run exactly the events of one window to ``BURST_UNTIL``."""
    single = run_sharded(burst_specs(), until=BURST_UNTIL, workers=1)
    run = run_sharded(
        burst_specs(), until=BURST_UNTIL, workers=workers, segment_interval=BURST_INTERVAL,
    )
    for index in range(SHARDS):
        assert len(run.results[index]["logs"][f"sink{index}"]) == BURST_COUNT * BURST_SIZE
    assert run.results == single.results
    assert run.events == single.events
    assert run.windows == ceil(BURST_UNTIL / BURST_INTERVAL)


@pytest.mark.parametrize("interval", [None, BURST_INTERVAL])
def test_workers_stream_one_frame_per_cell_and_never_wait(interval):
    """Per worker: the ready frame, the refuse list, the start cell, one frame
    per cell and the result.  No per-cell command flows to a worker."""
    run = run_sharded(burst_specs(), until=BURST_UNTIL, workers=2, segment_interval=interval)
    assert run.workers == 2
    assert run.ipc_messages == run.workers * (run.windows + 4)


# ---------------------------------------------------------------------------
# Decision-stream segment shipping (the streaming-merge transport)
# ---------------------------------------------------------------------------

class SegmentTickHarness(ShardHarness):
    """Counting shard that ships its ticks as per-barrier segments."""

    def __init__(self, env, actor, shard_id):
        super().__init__(env)
        self.actor = actor
        self.shard_id = shard_id
        self._shipped = 0

    def start(self):
        self.actor.on_start()

    def drain_segments(self):
        fresh = self.actor.fired[self._shipped:]
        self._shipped = len(self.actor.fired)
        return (self.env.now, {self.shard_id: list(fresh)})

    def finalize(self):
        return self.actor.fired


def build_segment_shard(payload):
    env = Environment(seed=payload)
    topo = Topology()
    topo.add_site("dc1")
    Network(env, topo, jitter_fraction=0.0)
    actor = CountingActor(env, f"segcounter{payload}", ticks=40)
    return SegmentTickHarness(env, actor, payload)


def _collect_segments(workers):
    barriers = []

    def sink(segments_by_shard):
        barriers.append({
            sid: segments_by_shard[sid] for sid in sorted(segments_by_shard)
        })

    run = run_sharded(
        [ShardSpec(i, build_segment_shard, i) for i in range(2)],
        until=0.05,
        workers=workers,
        segment_interval=0.01,
        segment_sink=sink,
    )
    return run, barriers


def test_segments_ship_at_every_barrier_and_cover_the_run():
    """Each barrier ships exactly what ran since the last one, watermarked."""
    run, barriers = _collect_segments(workers=1)
    assert run.windows > 1, "segment_interval must drive windowed execution"
    # Concatenating the per-barrier segments reproduces each shard's full
    # tick sequence — nothing lost, nothing duplicated, order preserved.
    for sid in (0, 1):
        shipped = [
            tick
            for barrier in barriers
            for tick in barrier.get(sid, (None, {}))[1].get(sid, [])
        ]
        assert shipped == run.results[sid]
    # Watermarks are the barrier times: non-decreasing, and every tick in a
    # barrier's segment is at or before that barrier's watermark.
    for sid in (0, 1):
        last = -1.0
        for barrier in barriers:
            if sid not in barrier:
                continue
            watermark, segments = barrier[sid]
            assert watermark >= last
            last = watermark
            assert all(tick <= watermark for tick in segments.get(sid, []))


def test_wire_codec_engine_differential():
    """Segment shards are bit-identical with no wire at all and over the codec,
    and the sink sees the identical barrier sequence."""
    baseline, barriers1 = _collect_segments(workers=1)
    codec, barriers2 = _collect_segments(workers=2)
    assert codec.results == baseline.results
    assert codec.events == baseline.events
    assert codec.windows == baseline.windows
    assert barriers2 == barriers1
    # IPC accounting: real for pipe transports, zero for the in-process one.
    assert codec.ipc_bytes > 0 and codec.ipc_messages > 0
    assert baseline.ipc_bytes == 0 and baseline.ipc_messages == 0


class SinkFailure(ValueError):
    """The sink's own exception type."""


def _failing_sink(segments_by_shard):
    raise SinkFailure("sink rejected a barrier")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_raising_segment_sink_surfaces_its_own_exception(workers):
    """The sink's exception object reaches the caller unwrapped, promptly."""
    began = time.perf_counter()
    with pytest.raises(SinkFailure) as excinfo:
        run_sharded(
            [ShardSpec(i, build_segment_shard, i) for i in range(2)],
            until=0.05,
            workers=workers,
            segment_interval=0.01,
            segment_sink=_failing_sink,
        )
    assert time.perf_counter() - began < 5.0
    assert type(excinfo.value) is SinkFailure
    assert str(excinfo.value) == "sink rejected a barrier"


class PhasedHarness(CountingHarness):
    """Counting shard whose script notes the clock and tick count at two phases."""

    def __init__(self, env, actor):
        super().__init__(env, actor)
        self.notes = []
        for time in (0.0135, 0.06):
            self.at(time, self._note)

    def _note(self):
        self.notes.append((self.env.now, len(self.actor.fired)))

    def finalize(self):
        return self.notes


def build_phased_shard(payload):
    harness = build_counting_shard(payload)
    return PhasedHarness(harness.env, harness.actor)


@pytest.mark.parametrize("workers, interval", [(1, None), (1, 0.01), (2, 0.01)])
def test_phase_callbacks_fire_where_run_until_returns(workers, interval):
    """A phase sees exactly the events up to its time, however windows fall."""
    run = run_sharded(
        [ShardSpec(i, build_phased_shard, i) for i in range(2)],
        until=0.06,
        workers=workers,
        segment_interval=interval,
    )
    # 50 ticks 1 ms apart: 13 have fired by t=0.0135, all 50 by t=0.06.
    assert run.results == {0: [(0.0135, 13), (0.06, 50)], 1: [(0.0135, 13), (0.06, 50)]}


def test_segment_interval_requires_horizon():
    with pytest.raises(ValueError, match="segment"):
        run_sharded(
            [ShardSpec(i, build_segment_shard, i) for i in range(2)],
            workers=1,
            segment_interval=0.01,
        )


@pytest.mark.parametrize("interval", [0.0, -0.01])
def test_nonpositive_segment_interval_rejected(interval):
    with pytest.raises(ValueError, match="segment_interval must be positive"):
        run_sharded(
            [ShardSpec(i, build_segment_shard, i) for i in range(2)],
            until=0.06,
            workers=1,
            segment_interval=interval,
        )


def test_empty_shard_list_rejected():
    with pytest.raises(ValueError, match="at least one shard"):
        run_sharded([], workers=1)


# ---------------------------------------------------------------------------
# Placement and failure identity
# ---------------------------------------------------------------------------

from repro.sim.parallel import _assign_shards  # noqa: E402


def test_shards_are_dealt_round_robin_in_shard_id_order():
    """Worker ``w`` runs shards ``w, w + workers, ...``, whatever the input order."""
    specs = [ShardSpec(sid, build_counting_shard, sid) for sid in (3, 0, 4, 1, 2)]
    for workers, placed in ((1, [[0, 1, 2, 3, 4]]), (2, [[0, 2, 4], [1, 3]]),
                            (3, [[0, 3], [1, 4], [2]])):
        assignment = _assign_shards(specs, workers)
        assert [[spec.shard_id for spec in worker] for worker in assignment] == placed


class DyingActor(Actor):
    """Kills its whole worker process partway through the window."""

    def on_start(self):
        self.env.simulator.call_later(0.01, self._die)

    def _die(self):
        import os

        os._exit(17)

    def on_message(self, sender, message):  # pragma: no cover - never called
        raise AssertionError("unreachable")


class DyingHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):  # pragma: no cover - worker dies first
        return None


def build_dying_shard(payload):
    env = Environment(seed=payload)
    topo = Topology()
    topo.add_site("dc1")
    Network(env, topo, jitter_fraction=0.0)
    if payload == 1:
        return DyingHarness(env, DyingActor(env, f"dying{payload}"))
    return CountingHarness(env, CountingActor(env, f"counter{payload}", ticks=50))


def test_dead_worker_surfaces_with_identity():
    """A worker that dies mid-window raises immediately, naming the worker
    and its shards — instead of wedging the parent on a pipe read forever —
    and the surviving worker sees its pipe close, so tear-down is prompt too
    (no waiting out the join timeout)."""
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"died mid-run") as excinfo:
        run_sharded(
            [ShardSpec(i, build_dying_shard, i) for i in range(2)], workers=2
        )
    assert time.perf_counter() - began < 5.0
    message = str(excinfo.value)
    assert "shards" in message and "exit code" in message

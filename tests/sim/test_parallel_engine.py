"""Unit tests of the conservative parallel engine (`repro.sim.parallel`).

The load-bearing property: a sharded run is bit-identical for every worker
count, and — for deployments with deterministic latencies — bit-identical to
running the merged deployment on one shared simulator.  Builders live at
module level so the specs survive the ``multiprocessing`` boundary.
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
HORIZON = 2.0


def two_site_topology() -> Topology:
    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    topo.add_site("s0")
    topo.add_site("s1")
    topo.set_link("s0", "s1", one_way_latency=LINK_LATENCY, bandwidth_bps=1e9)
    return topo


class Pinger(Actor):
    """Bounces a counter to a peer; logs (time, value) on every receipt."""

    def __init__(self, env, name, site, peer, rounds):
        super().__init__(env, name, site)
        self.peer = peer
        self.rounds = rounds
        self.log = []

    def on_start(self):
        if self.name.endswith("0"):
            self.send(self.peer, Probe(body={"n": 0}))

    def on_message(self, sender, message):
        self.log.append((round(self.now, 9), message.body["n"]))
        if message.body["n"] < self.rounds:
            self.send(sender, Probe(body={"n": message.body["n"] + 1}))


class PingerHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):
        return self.actor.log


def build_pinger_shard(payload):
    index, rounds = payload
    env = Environment(seed=7)
    Network(env, two_site_topology(), jitter_fraction=0.0)
    actor = Pinger(env, f"p{index}", f"s{index}", f"p{1 - index}", rounds)
    return PingerHarness(env, actor)


def run_merged_pingpong(rounds):
    env = Environment(seed=7)
    Network(env, two_site_topology(), jitter_fraction=0.0)
    a = Pinger(env, "p0", "s0", "p1", rounds)
    b = Pinger(env, "p1", "s1", "p0", rounds)
    a.on_start()
    b.on_start()
    env.run(until=HORIZON)
    return {0: a.log, 1: b.log}


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
# Windowed cross-shard execution
# ---------------------------------------------------------------------------

def specs():
    return [ShardSpec(i, build_pinger_shard, (i, ROUNDS)) for i in range(2)]


def test_sharded_matches_merged_single_simulator():
    """Windowed shards reproduce the merged run's exact times and values."""
    reference = run_merged_pingpong(ROUNDS)
    run = run_sharded(specs(), until=HORIZON, workers=1, lookahead=LINK_LATENCY)
    assert run.results[0] == reference[0]
    assert run.results[1] == reference[1]
    assert run.cross_messages == ROUNDS + 1


def test_adaptive_horizon_cuts_barriers_not_results():
    """Event-horizon windows skip idle stretches; the schedule is untouched.

    The ping-pong goes quiet after ~0.3s of a 2.0s horizon: the engine
    barriers once per message plus one final hop to the horizon, where a
    barrier per lookahead — the textbook protocol — is by definition
    ``ceil(HORIZON / LINK_LATENCY)`` of them.
    """
    reference = run_merged_pingpong(ROUNDS)
    run = run_sharded(specs(), until=HORIZON, workers=1, lookahead=LINK_LATENCY)
    assert run.results == reference
    assert run.cross_messages == ROUNDS + 1
    assert run.windows == ROUNDS + 2  # one per message, one hop to the horizon
    assert run.windows < ceil(HORIZON / LINK_LATENCY)


def test_workers_do_not_change_results():
    """Multiprocessing execution is bit-identical to the in-process engine."""
    sequential = run_sharded(specs(), until=HORIZON, workers=1, lookahead=LINK_LATENCY)
    parallel = run_sharded(specs(), until=HORIZON, workers=2, lookahead=LINK_LATENCY)
    assert parallel.workers == 2
    assert parallel.results == sequential.results
    assert parallel.cross_messages == sequential.cross_messages
    assert parallel.events == sequential.events
    assert parallel.windows == sequential.windows


def test_start_time_sends_cross_the_barrier():
    """The t=0 send from ``on_start`` reaches the other shard."""
    run = run_sharded(specs(), until=HORIZON, workers=1, lookahead=LINK_LATENCY)
    # p1 received the opening message (n=0) even though it was sent before
    # the first window ran.
    assert run.results[1][0][1] == 0


def test_lookahead_violation_raises():
    """A window longer than the minimum latency is rejected, not reordered."""
    with pytest.raises(SimulationError, match="lookahead violation"):
        run_sharded(specs(), until=HORIZON, workers=1, lookahead=5 * LINK_LATENCY)


# ---------------------------------------------------------------------------
# Embarrassingly parallel execution (no lookahead)
# ---------------------------------------------------------------------------

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
# Validation and plumbing
# ---------------------------------------------------------------------------

def test_duplicate_shard_ids_rejected():
    with pytest.raises(ValueError, match="duplicate shard ids"):
        run_sharded([ShardSpec(0, build_counting_shard, 0),
                     ShardSpec(0, build_counting_shard, 1)])


def test_lookahead_requires_horizon():
    with pytest.raises(ValueError, match="horizon"):
        run_sharded(specs(), workers=1, lookahead=LINK_LATENCY)


def test_cross_traffic_without_lookahead_raises():
    """Shards that talk need windows; a single-window run must not lose mail."""
    with pytest.raises(SimulationError, match="no\\s+lookahead"):
        run_sharded(specs(), until=HORIZON, workers=1)


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


def test_gateway_send_to_undeclared_actor_still_drops():
    env = Environment(seed=1)
    network = Network(env, two_site_topology(), jitter_fraction=0.0)
    actor = Pinger(env, "p0", "s0", "nobody", 1)
    network.set_remote_routes({"p1": "s1"})
    actor.send("nobody", Probe(body={"n": 0}))
    assert network.stats.dropped == 1
    assert network.drain_outbox() == []


# ---------------------------------------------------------------------------
# Window-boundary edges (binary-exact timing: every quantity is a multiple of
# 2^-8 seconds, so sums and the delivery arithmetic are exact — equality with
# barrier timestamps is meaningful, not a rounding accident)
# ---------------------------------------------------------------------------

EXACT_LATENCY = 1 / 64            # lookahead == the (only) link latency
EXACT_TX = 1 / 256                # (128-byte probe + 66 header) bytes * 8 / bw
EXACT_BANDWIDTH = 194 * 8 * 256   # makes one probe transmit in 2^-8 s
EXACT_UNTIL = 16 / 64


def exact_topology() -> Topology:
    topo = Topology(local_latency=1 / 1024, local_bandwidth_bps=10e9)
    topo.add_site("s0")
    topo.add_site("s1")
    topo.set_link(
        "s0", "s1", one_way_latency=EXACT_LATENCY, bandwidth_bps=EXACT_BANDWIDTH
    )
    return topo


class ScheduledSender(Actor):
    """Sends one fixed-size message to a remote peer at each scheduled time."""

    def __init__(self, env, name, site, peer, send_times):
        super().__init__(env, name, site)
        self.peer = peer
        self.send_times = list(send_times)
        self.log = []

    def on_start(self):
        for at in self.send_times:
            self.env.simulator.schedule_at(at, self._fire, at)

    def _fire(self, at):
        self.send(self.peer, Probe(body={"sent_at": at}))

    def on_message(self, sender, message):
        self.log.append((self.now, message.body["sent_at"]))


class SenderHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):
        return self.actor.log


def build_exact_shard(payload):
    index, send_times = payload
    env = Environment(seed=11)
    Network(env, exact_topology(), jitter_fraction=0.0)
    actor = ScheduledSender(
        env, f"x{index}", f"s{index}", f"x{1 - index}", send_times
    )
    return SenderHarness(env, actor)


def run_exact_merged(times_a, times_b):
    env = Environment(seed=11)
    Network(env, exact_topology(), jitter_fraction=0.0)
    a = ScheduledSender(env, "x0", "s0", "x1", times_a)
    b = ScheduledSender(env, "x1", "s1", "x0", times_b)
    a.on_start()
    b.on_start()
    env.run(until=EXACT_UNTIL)
    return {0: a.log, 1: b.log}


def run_exact_sharded(times_a, times_b, **kwargs):
    return run_sharded(
        [
            ShardSpec(0, build_exact_shard, (0, times_a)),
            ShardSpec(1, build_exact_shard, (1, times_b)),
        ],
        until=EXACT_UNTIL,
        lookahead=EXACT_LATENCY,
        **kwargs,
    )


def test_cross_shard_message_due_exactly_at_barrier_timestamp():
    """A delivery landing exactly on a barrier is delivered once, on time.

    Sent at t=3/256: transmission 1/256 + propagation 4/256 puts the delivery
    at t=8/256 = 2 lookaheads — bit-equal to the second barrier timestamp.
    The engine must deliver it in the window *after* that barrier at its
    exact computed time, identically for every worker count and identically
    to the merged single-simulator run.
    """
    send = [3 / 256]
    reference = run_exact_merged(send, [])
    assert reference[1] == [(8 / 256, 3 / 256)]  # exactly the 2nd barrier
    for workers in (1, 2):
        run = run_exact_sharded(send, [], workers=workers)
        assert run.results == reference, workers


def test_send_event_exactly_at_barrier_with_minimum_lookahead():
    """Events firing exactly on barrier timestamps stay safe at L == latency.

    The lookahead equals the minimum link latency (the off-by-one regime: any
    window even one event longer would violate).  Senders fire exactly at
    t = k*L — the barrier instants themselves — from both sides; every
    delivery must still happen at its exact merged-run time with no
    lookahead violation, for both worker counts.
    """
    times_a = [0.0, EXACT_LATENCY, 2 * EXACT_LATENCY]
    times_b = [EXACT_LATENCY, 3 * EXACT_LATENCY]
    reference = run_exact_merged(times_a, times_b)
    assert reference[0] and reference[1]
    for workers in (1, 2):
        run = run_exact_sharded(times_a, times_b, workers=workers)
        assert run.results == reference, workers


def test_inject_remote_boundary_is_inclusive():
    """A record due exactly `now` injects fine; strictly earlier raises."""
    env = Environment(seed=3)
    network = Network(env, exact_topology(), jitter_fraction=0.0)
    receiver = ScheduledSender(env, "x1", "s1", "x0", [])
    env.simulator.run_window(0.5)
    network.inject_remote([(0.5, "x0", "x1", Probe(body={"sent_at": 0.25}))])
    env.run()
    assert receiver.log == [(0.5, 0.25)]
    with pytest.raises(SimulationError, match="lookahead violation"):
        network.inject_remote(
            [(0.4999, "x0", "x1", Probe(body={"sent_at": 0.25}))]
        )


def test_outbox_frontier_reports_earliest_departure():
    """The gateway frontier is the earliest undrained outbound delivery."""
    env = Environment(seed=5)
    network = Network(env, exact_topology(), jitter_fraction=0.0)
    sender = ScheduledSender(env, "x0", "s0", "x1", [])
    network.set_remote_routes({"x1": "s1"})
    assert network.outbox_frontier is None
    sender.send("x1", Probe(body={"sent_at": 0.0}))
    sender.send("x1", Probe(body={"sent_at": 0.0}))
    first = network.outbox_frontier
    assert first == EXACT_TX + EXACT_LATENCY
    records = network.drain_outbox()
    assert [r[0] for r in records][0] == first
    assert network.outbox_frontier is None


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
# Bursty barrier-count regression (adaptive event horizons earn their keep)
# ---------------------------------------------------------------------------

BURST_LATENCY = 0.010
BURST_GAP = 0.4          # idle stretches 40x the lookahead
BURST_COUNT = 3
BURST_SIZE = 5
BURST_SPACING = 0.001
BURST_UNTIL = BURST_COUNT * BURST_GAP + 0.1


class BurstActor(Actor):
    """Fires short cross-shard bursts separated by long idle stretches."""

    def __init__(self, env, name, site, peer):
        super().__init__(env, name, site)
        self.peer = peer
        self.received = []

    def on_start(self):
        for burst in range(BURST_COUNT):
            for index in range(BURST_SIZE):
                self.env.simulator.schedule_at(
                    burst * BURST_GAP + index * BURST_SPACING,
                    self._fire, burst, index,
                )

    def _fire(self, burst, index):
        self.send(self.peer, Probe(body={"burst": burst, "index": index}))

    def on_message(self, sender, message):
        self.received.append((round(self.now, 9), message.body["burst"], message.body["index"]))


class BurstHarness(ShardHarness):
    def __init__(self, env, actor):
        super().__init__(env)
        self.actor = actor

    def start(self):
        self.actor.on_start()

    def finalize(self):
        return self.actor.received


def burst_topology() -> Topology:
    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    topo.add_site("s0")
    topo.add_site("s1")
    topo.set_link("s0", "s1", one_way_latency=BURST_LATENCY, bandwidth_bps=1e9)
    return topo


def build_burst_shard(index):
    env = Environment(seed=13)
    Network(env, burst_topology(), jitter_fraction=0.0)
    actor = BurstActor(env, f"burst{index}", f"s{index}", f"burst{1 - index}")
    return BurstHarness(env, actor)


def run_merged_burst():
    env = Environment(seed=13)
    Network(env, burst_topology(), jitter_fraction=0.0)
    actors = [BurstActor(env, f"burst{i}", f"s{i}", f"burst{1 - i}") for i in range(2)]
    for actor in actors:
        actor.on_start()
    env.run(until=BURST_UNTIL)
    return {i: actor.received for i, actor in enumerate(actors)}


def test_adaptive_beats_fixed_on_bursty_topology():
    """Regression: event horizons hop an idle stretch far longer than the
    lookahead in one barrier, and every delivery lands where the merged
    single-simulator run puts it.

    A barrier per lookahead — the textbook protocol — is by definition
    ``ceil(BURST_UNTIL / BURST_LATENCY)`` of them, work or not.
    """
    reference = run_merged_burst()
    assert all(len(received) == BURST_COUNT * BURST_SIZE for received in reference.values())
    run = run_sharded(
        [ShardSpec(i, build_burst_shard, i) for i in range(2)],
        until=BURST_UNTIL,
        workers=1,
        lookahead=BURST_LATENCY,
    )
    assert run.results == reference
    # Per burst: one window in which both sides send, one in which both
    # receive; then the hop to the horizon.
    assert run.barrier_count == 2 * BURST_COUNT + 1
    assert run.barrier_count <= BURST_COUNT * (BURST_SIZE + 2) + 2
    assert run.barrier_count < ceil(BURST_UNTIL / BURST_LATENCY)


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


def test_segment_stream_is_worker_count_invariant():
    """The sink sees the identical barrier sequence for every worker count."""
    run1, barriers1 = _collect_segments(workers=1)
    run2, barriers2 = _collect_segments(workers=2)
    assert run1.results == run2.results
    assert run1.windows == run2.windows
    assert barriers1 == barriers2


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


def test_cross_traffic_under_segment_windows_still_raises():
    """Segment barriers give no delivery guarantee: talking shards need a
    lookahead, and the engine refuses to lose their mail silently."""
    with pytest.raises(SimulationError, match="lookahead"):
        run_sharded(
            specs(), until=HORIZON, workers=1, segment_interval=0.05
        )

# ---------------------------------------------------------------------------
# Barrier-plane round 2: weighted placement, failure identity, skip windows,
# and the wire differential
# ---------------------------------------------------------------------------

from repro.sim.parallel import _assign_shards  # noqa: E402


def test_weighted_assignment_heaviest_first():
    """LPT placement: heaviest shards spread first, ties broken by shard id.

    Round-robin by list position — the old rule — would put shards [0, 2, 4]
    and [1, 3] together regardless of weight, loading one worker with 8 and
    the other with 4.  The weighted schedule is pinned exactly so a future
    tweak cannot silently regress placement determinism.
    """
    weights = {0: 5.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 2.0}
    specs = [
        ShardSpec(sid, build_counting_shard, sid, weight=weight)
        for sid, weight in weights.items()
    ]
    assignment = _assign_shards(specs, workers=2)
    placed = [[spec.shard_id for spec in worker] for worker in assignment]
    assert placed == [[0, 1], [2, 3, 4]]
    loads = [sum(weights[sid] for sid in worker) for worker in placed]
    assert loads == [6.0, 6.0]
    # Deterministic: a permuted input yields the identical schedule.
    assignment2 = _assign_shards(list(reversed(specs)), workers=2)
    assert [[s.shard_id for s in worker] for worker in assignment2] == placed


def test_nonpositive_shard_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        run_sharded(
            [ShardSpec(0, build_counting_shard, 0, weight=0.0)], workers=1
        )


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


class OneWayReceiver(Actor):
    """Passive sink: logs receipts, never schedules or sends anything."""

    def __init__(self, env, name, site):
        super().__init__(env, name, site)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((round(self.now, 9), message.body["burst"], message.body["index"]))


def build_oneway_shard(index):
    env = Environment(seed=13)
    Network(env, burst_topology(), jitter_fraction=0.0)
    if index == 0:
        actor = BurstActor(env, "burst0", "s0", "sink1")
        return BurstHarness(env, actor)
    actor = OneWayReceiver(env, "sink1", "s1")
    return BurstHarness(env, actor)


def test_one_way_bursts_skip_idle_receiver_windows():
    """Horizon-aware scheduling: the idle receiver's worker is skipped —
    no wake, no reply — for windows where it has no inbound and no local
    events, without changing a single delivery."""
    runs = {}
    for workers in (1, 2):
        runs[workers] = run_sharded(
            [ShardSpec(i, build_oneway_shard, i) for i in range(2)],
            until=BURST_UNTIL,
            workers=workers,
            lookahead=BURST_LATENCY,
        )
    assert runs[1].results == runs[2].results
    assert runs[1].windows == runs[2].windows
    assert len(runs[1].results[1]) == BURST_COUNT * BURST_SIZE
    # The in-process reference engine never skips; the pipe transport must
    # have skipped the receiver during the sender-only stretches.
    assert runs[1].worker_windows_skipped == 0
    assert runs[2].worker_windows_skipped > 0


def test_wire_codec_engine_differential():
    """Delivery order is bit-identical with no wire at all and over the codec."""
    baseline = run_sharded(specs(), until=HORIZON, workers=1, lookahead=LINK_LATENCY)
    codec = run_sharded(specs(), until=HORIZON, workers=2, lookahead=LINK_LATENCY)
    assert codec.results == baseline.results
    assert codec.windows == baseline.windows
    # IPC accounting: real for pipe transports, zero for the in-process one.
    assert codec.ipc_bytes > 0 and codec.ipc_messages > 0
    assert baseline.ipc_bytes == 0 and baseline.ipc_messages == 0

"""``ReactiveReplicaHost`` under delivery gaps: partition-stall then heal.

A partitioned producer stops covering its rings, the host's joint watermark
stalls at the last honest mark, and — once barriers cover the ring again —
the backlog merges and the state converges to the offline
``replay_streams`` anchor.  The stall is an availability incident, not
merge latency: the per-command accounting must exclude the stall window,
and the window itself is reported separately.

The joint watermark and the closed stall windows are fixed for the length of
one ``ingest``; the host resolves them per barrier, not per delivery, and the
latency samples of a faulted Figure 6 run stay what ``tests/golden/exact.json``
(``reactive_latency``, recorded at the per-delivery code of commit ``ad314b1``)
says they are.
"""

from unittest import mock

import pytest

from repro.bench import parallel as bench_parallel
from repro.core.client import Command
from repro.core.smr import ReactiveReplicaHost
from repro.kvstore.replica import MRPStoreReplica
from repro.multiring.merge import MergeCursor, RingSegment, replay_streams
from repro.paxos.messages import ProposalValue
from repro.sim.actor import Environment
from tests import golden


def insert(ring, key, created_at):
    command = Command(
        op="insert", args=(key, None, 64), group_id=ring,
        size_bytes=64, created_at=created_at,
    )
    return ProposalValue(payload=command, size_bytes=64)


@pytest.fixture
def host():
    env = Environment()
    replica = MRPStoreReplica(env, "merged", respond_to_clients=False)
    return ReactiveReplicaHost(replica, [0, 1], messages_per_round=1)


def test_partition_stall_then_heal_converges_to_offline_anchor(host):
    streams = {
        0: [(i, insert(0, f"a{i}", 0.5)) for i in range(4)],
        1: [(i, insert(1, f"b{i}", 0.5)) for i in range(4)],
    }
    # Barrier 1: both rings covered, one entry each.
    host.ingest(
        {0: streams[0][:1], 1: streams[1][:1]}, watermark=1.0, covered=[0, 1]
    )
    assert host.watermark == 1.0
    assert host._stall_open is None
    # Barriers 2 and 3: ring 1's producer is partitioned away — barriers
    # arrive covering ring 0 only.  The joint watermark must stall at the
    # last honest mark instead of over-promising freshness.
    host.ingest({0: streams[0][1:2]}, watermark=2.0, covered=[0])
    host.ingest({0: streams[0][2:3]}, watermark=3.0, covered=[0])
    assert host._stall_open is not None
    assert host.watermark == 1.0
    # Ring 0 deliveries queue at the round-robin gate behind ring 1.
    applied_mid = host.commands_applied
    # Barrier 4: the partition heals and ring 1's backlog arrives.
    applied = host.ingest(
        {0: streams[0][3:], 1: streams[1][1:]}, watermark=4.0, covered=[0, 1]
    )
    assert applied > 0
    assert host._stall_open is None
    assert host.watermark == 4.0
    # The merged output is exactly the offline anchor.
    assert host.deliveries == replay_streams(streams)
    # ...and the replica's store holds every key from both rings.
    store = host.replica.store
    for i in range(4):
        assert store.read(f"a{i}") is not None
        assert store.read(f"b{i}") is not None
    assert host.commands_applied == 8 >= applied_mid


def test_stall_window_is_recorded_and_excluded_from_latency(host):
    streams = {
        0: [(0, insert(0, "a0", 0.5))],
        1: [(0, insert(1, "b0", 0.5))],
    }
    # Barrier 1 covers both rings (ring 1 idle but reachable); the
    # partition hits before barrier 2.
    host.ingest({0: streams[0]}, watermark=1.0, covered=[0, 1])
    host.ingest({}, watermark=2.0, covered=[0])
    host.ingest({}, watermark=3.0, covered=[0])
    assert host.stall_windows == []  # still open, not yet closed
    host.ingest({1: streams[1]}, watermark=4.0, covered=[0, 1])
    # The window opened at the stalled joint mark (1.0) and closed when the
    # healing barrier caught the joint watermark up (4.0).
    assert host.stall_windows == [(1.0, 4.0)]
    stats = host.latency_stats()
    assert stats["stall_count"] == 1.0
    assert stats["stalled_ms"] == pytest.approx(3000.0)
    # Both commands (created at 0.5, readable at watermark 4.0) would show
    # 3.5 s of "merge latency" — 3.0 s of which is the stall.  The
    # accounting must subtract the overlap and report 0.5 s.
    assert stats["count"] == 2.0
    assert stats["mean_ms"] == pytest.approx(500.0)


def test_unfaulted_ingest_records_no_stall(host):
    streams = {
        0: [(0, insert(0, "a0", 0.2))],
        1: [(0, insert(1, "b0", 0.2))],
    }
    host.ingest(streams, watermark=1.0)
    host.ingest({}, watermark=2.0)
    assert host.stall_windows == []
    assert host._stall_open is None
    stats = host.latency_stats()
    assert stats["stall_count"] == 0.0
    assert stats["mean_ms"] == pytest.approx(800.0)


def test_joint_watermark_is_read_per_barrier_not_per_delivery(host, monkeypatch):
    reads = []
    joint = MergeCursor.watermark.fget
    monkeypatch.setattr(
        MergeCursor, "watermark", property(lambda cursor: reads.append(1) or joint(cursor))
    )
    streams = {
        ring: [(i, insert(ring, f"k{ring}-{i}", 0.25)) for i in range(50)] for ring in (0, 1)
    }
    assert host.ingest(streams, watermark=1.0) == 100
    assert len(reads) == 1
    stats = host.latency_stats()
    assert stats["count"] == 100.0
    assert stats["mean_ms"] == pytest.approx(750.0)


def test_no_stall_window_means_no_overlap_loop(host):
    class NeverWalked(list):
        def __iter__(self):
            raise AssertionError("walked an empty stall-window list")

    host._stall_windows = NeverWalked()
    host.ingest({0: [(0, insert(0, "a0", 0.2))], 1: [(0, insert(1, "b0", 0.2))]}, watermark=1.0)
    assert host._latency.count == 2


def test_a_segment_of_an_unsubscribed_ring_raises_naming_the_ring(host):
    """A shard shipping a ring the replica does not subscribe to is refused."""
    barrier = {0: (1.0, {0: RingSegment(0, [(0, insert(0, "a0", 0.5))])}),
               1: (1.0, {7: RingSegment(0, [(0, insert(7, "c0", 0.5))])})}
    with pytest.raises(KeyError, match="group 7"):
        host.sink(barrier)


def stalled_fig6_latency():
    """Exact latency samples of a short shared Figure 6 run with one crash stall.

    Count, sum and a digest of every sample in record order (hence every
    percentile), floats as ``float.hex`` — what ``repin`` writes and the test
    below compares.
    """
    hosts = []

    class Recorded(ReactiveReplicaHost):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            hosts.append(self)

    with mock.patch.object(bench_parallel, "ReactiveReplicaHost", Recorded):
        bench_parallel.run_fig6_sharded(
            2, workers=1, warmup=0.3, duration=1.2, seed=42,
            crash_schedule=[(0.7, "dlog-replica0", 0.4)],
        )
    (host,) = hosts
    recorder = host._latency
    return {
        "count": recorder.count,
        "sum": float(recorder._total).hex(),
        "samples": golden.digest([sample.hex() for sample in recorder._samples]),
        "stall_windows": [[start.hex(), end.hex()] for start, end in host.stall_windows],
    }


def test_faulted_fig6_latency_samples_reproduce_the_golden_values():
    exact = stalled_fig6_latency()
    assert len(exact["stall_windows"]) == 1 and exact["count"] > 0
    assert exact == golden.load()["reactive_latency"]

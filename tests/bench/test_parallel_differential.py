"""Seed-differential tests of sharded execution (the acceptance bar of the
parallel substrate): for the same seed, the sharded engine must produce the
identical per-learner delivery sequence as the single-process engine.

Two comparisons, from strongest to broadest:

* **merged-simulator equivalence** — a two-ring deployment built once on one
  shared simulator and once as two shards; with deterministic latencies
  (jitter off) and site-disjoint rings the delivery sequences are
  bit-identical.  This pins the conservative-window engine to the semantics
  of the original kernel.
* **worker-count invariance** — the full Figure 6 sharded deployment (real
  service stack: dLog replicas, batching coordinators, dedicated disks, the
  shared learner rebuilt by a parent-hosted reactive replica) run with
  ``workers=1`` (the in-process single-process engine) and ``workers=2``
  (two forked workers); every replica's full delivery sequence, the merged
  order and every measured rate must match.
"""

from __future__ import annotations

import pytest

from repro.bench.parallel import run_fig6_sharded
from repro.core import AtomicMulticast, MultiRingConfig
from repro.multiring import MultiRingProcess
from repro.sim import ShardHarness, ShardSpec, Topology, run_sharded

# The multi-second figure-6 comparisons are slow-marked: CI's docs job runs them
# in its own step ("Reactive differential determinism", ``-m slow``); the
# sub-second ring cases stay in tier 1, so each test runs once per CI run.

RING_PROCESSES = 3
MESSAGES_PER_RING = 12
HORIZON = 1.5


def _config() -> MultiRingConfig:
    return MultiRingConfig(
        rate_interval=0.005,
        max_rate=1000.0,
        checkpoint_interval=None,
        trim_interval=None,
    )


def _two_site_topology() -> Topology:
    # One site per ring; no inter-site link is defined because the rings
    # never talk to each other (that is what makes them shardable).
    topo = Topology(local_latency=0.00005, local_bandwidth_bps=10e9)
    topo.add_site("s0")
    topo.add_site("s1")
    return topo


class RecordingProcess(MultiRingProcess):
    def __init__(self, env, name, site):
        super().__init__(env, name, site)
        self.delivered = []

    def on_deliver(self, group_id, instance, value):
        self.delivered.append((group_id, instance, value.payload))


def _build_ring(system: AtomicMulticast, ring_id: int):
    """One ring: three pal processes on the ring's own site, plus traffic."""
    site = f"s{ring_id}"
    processes = [
        RecordingProcess(system.env, f"r{ring_id}n{i}", site)
        for i in range(RING_PROCESSES)
    ]
    system.create_ring(ring_id, [(p.name, "pal") for p in processes])
    sim = system.env.simulator
    for index in range(MESSAGES_PER_RING):
        proposer = processes[index % RING_PROCESSES]
        sim.call_later(
            0.01 + 0.02 * index,
            proposer.multicast,
            ring_id,
            f"g{ring_id}-m{index}",
            128,
        )
    return processes


class _RingShard(ShardHarness):
    def __init__(self, system, processes):
        super().__init__(system.env)
        self.system = system
        self.processes = processes

    def start(self):
        self.system.start()

    def finalize(self):
        return {p.name: p.delivered for p in self.processes}


def _build_ring_shard(ring_id: int) -> _RingShard:
    system = AtomicMulticast(
        topology=_two_site_topology(), config=_config(), seed=42, jitter_fraction=0.0
    )
    return _RingShard(system, _build_ring(system, ring_id))


def _run_merged():
    system = AtomicMulticast(
        topology=_two_site_topology(), config=_config(), seed=42, jitter_fraction=0.0
    )
    merged = _RingShard(system, _build_ring(system, 0) + _build_ring(system, 1))
    merged.run_to_end(HORIZON)
    return merged.finalize()


def test_sharded_matches_merged_single_simulator():
    """Shards reproduce the merged single-simulator run bit for bit."""
    reference = _run_merged()
    assert any(reference.values()), "merged run delivered nothing"
    run = run_sharded(
        [ShardSpec(r, _build_ring_shard, r) for r in range(2)], until=HORIZON, workers=1
    )
    sharded = {**run.results[0], **run.results[1]}
    assert sharded == reference
    # Every ring delivered its full message sequence, in proposal order.
    payloads = [p for (_, _, p) in sharded["r0n0"]]
    assert payloads == [f"g0-m{i}" for i in range(MESSAGES_PER_RING)]


def test_sharded_workers_match_merged_single_simulator():
    """The multiprocessing path agrees with the merged reference too."""
    reference = _run_merged()
    run = run_sharded(
        [ShardSpec(r, _build_ring_shard, r) for r in range(2)], until=HORIZON, workers=2
    )
    assert {**run.results[0], **run.results[1]} == reference


@pytest.mark.slow
def test_fig6_original_configuration_sharded_differential():
    """Figure 6's *original* deployment (shared learner + common ring) shards.

    One shard per log ring plus the common-ring shard; a parent-hosted
    **reactive** dLog replica applies the merged round-robin order barrier by
    barrier as the shards stream their decision-stream segments.  The
    complete reactively-applied sequence, every per-ring stream and every
    measured rate must be bit-identical between ``workers=1`` (the
    single-process reference engine) and ``workers=2`` — and the reactive
    order must equal the offline ``replay_streams`` of the same streams.
    """
    kwargs = dict(warmup=0.2, duration=0.6, record_deliveries=True)
    single = run_fig6_sharded(2, workers=1, **kwargs)
    sharded = run_fig6_sharded(2, workers=2, **kwargs)
    assert single.series["merged_deliveries"] == sharded.series["merged_deliveries"]
    assert single.series["ring_streams"] == sharded.series["ring_streams"]
    assert single.series["deliveries"] == sharded.series["deliveries"]
    assert single.metrics["aggregate_ops"] == sharded.metrics["aggregate_ops"]
    assert single.metrics["events_total"] == sharded.metrics["events_total"]
    # Streaming == offline: the reactive replica applied exactly the sequence
    # the offline replay reconstructs from the concatenated segments.
    for result in (single, sharded):
        assert (
            result.series["merged_deliveries"]
            == result.series["merged_deliveries_offline"]
        ), "reactive merge diverged from the offline replay"
    # The deployment really is the original shape: both log rings plus the
    # rate-leveled common ring feed the merge, and the merged order
    # interleaves the log rings' appends.
    assert set(single.series["ring_streams"]) == {0, 1, 99}
    assert single.series["ring_streams"][99], "common ring recorded no stream"
    merged = single.series["merged_deliveries"]["dlog-replica0"]
    assert merged, "merge stage delivered nothing"
    assert {group for group, _, _ in merged} == {0, 1}  # common ring: skips only
    # Reactive service accounting: the run is windowed (streaming barriers),
    # the hosted replica executed every merged command, and client-visible
    # merge latency was recorded — identically across worker counts.
    for result in (single, sharded):
        assert result.metrics["barrier_count"] > 1
        assert result.metrics["reactive_commands_applied"] == float(len(merged))
        assert result.metrics["reactive_latency_count"] > 0
        assert result.metrics["reactive_latency_mean_ms"] > 0.0
        assert result.metrics["merge_stage_s"] >= 0.0
        assert (
            result.metrics["shard_wall_clock_s"]
            == result.metrics["wall_clock_s"] - result.metrics["merge_stage_s"]
        )
    assert (
        single.metrics["reactive_latency_mean_ms"]
        == sharded.metrics["reactive_latency_mean_ms"]
    )


@pytest.mark.slow
def test_fig6_faulted_crash_schedule_differential():
    """A fixed crash schedule leaves the faulted run bit-identical.

    The shared learner's in-shard mirrors crash at a scheduled simulated
    instant and restart later; the restarted learners re-emit their stream
    prefixes, the barrier cuts omit the down rings (the reactive hosts'
    joint watermark stalls), and each shard's segment buffer drops the
    re-emission of what it already shipped.  The reactively merged state
    must still be bit-identical between ``workers=1`` and ``workers=2``,
    and equal to the offline anchor: ``replay_streams`` of the shipped
    streams, fed in one chunk.
    """
    kwargs = dict(
        warmup=0.3,
        duration=1.2,
        record_deliveries=True,
        crash_schedule=[(0.7, "dlog-replica0", 0.4)],
    )
    single = run_fig6_sharded(2, workers=1, **kwargs)
    sharded = run_fig6_sharded(2, workers=2, **kwargs)
    assert single.series["merged_deliveries"] == sharded.series["merged_deliveries"]
    assert single.series["ring_streams"] == sharded.series["ring_streams"]
    assert single.metrics["events_total"] == sharded.metrics["events_total"]
    for result in (single, sharded):
        assert result.params["faulted"] is True
        assert (
            result.series["merged_deliveries"]
            == result.series["merged_deliveries_offline"]
        ), "faulted reactive merge diverged from the offline anchor"
        # The crash opened a stall window at the reactive stage, and it is
        # reported identically whatever the worker count.
        assert result.metrics["reactive_stall_count"] >= 1.0
        assert result.metrics["reactive_stalled_ms"] > 0.0
    assert (
        single.metrics["reactive_stalled_ms"]
        == sharded.metrics["reactive_stalled_ms"]
    )
    merged = single.series["merged_deliveries"]["dlog-replica0"]
    assert merged, "faulted merge stage delivered nothing"
    assert {group for group, _, _ in merged} == {0, 1}


def test_fig6_sharded_runs_only_the_shared_deployment():
    with pytest.raises(ValueError, match="'shared'"):
        run_fig6_sharded(2, configuration="global")

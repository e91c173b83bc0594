#!/usr/bin/env python
"""Quickstart: read merged MRP-Store state while shards run on real cores.

The paper's service deployments couple independent rings through a *shared
learner*: every replica subscribes to all rings and serves clients from the
merged, deterministically interleaved state.  Sharded execution runs each
ring in its own worker process — so who answers clients?

This example shows the **reactive merge stage** doing exactly that:

* two MRP-Store partitions (ring 0 and ring 1), each with its own acceptors
  and a closed-loop client inserting keys, run as two shards under
  ``run_sharded(workers=N)``;
* at every barrier each shard ships the decision-stream segments its ring
  decided since the last barrier (skips included, with a watermark);
* a **real** :class:`~repro.kvstore.replica.MRPStoreReplica` hosted in the
  parent process — driven by :class:`~repro.core.smr.ReactiveReplicaHost`,
  the run's segment sink — applies the
  merged round-robin deliveries barrier by barrier, so this script can read
  merged cross-partition state *while the shards run*, with client-visible
  freshness accounting.

The reactively applied order is bit-identical to the offline
``replay_streams`` of the shipped streams (each ring's cuts concatenated,
fed in one chunk) and to any other worker count.  Each shard's
:class:`~repro.multiring.merge.RingSegmentBuffer` ships every decided
instance once: were a learner to crash and restart, the buffer would drop
its re-emission of the prefix already shipped.

Run from the repository root with:

    PYTHONPATH=src python examples/sharded_service.py --workers 2

(`tests/examples/test_sharded_service.py` runs exactly that command and
asserts this script's output, so the quickstart stays green.)
"""

from __future__ import annotations

import argparse
import os
import sys

# Make the example work from a plain checkout (no install, no PYTHONPATH):
# the package lives in <repo>/src.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import AtomicMulticast, MultiRingConfig, ReactiveReplicaHost
from repro.core.client import Command
from repro.kvstore.replica import MRPStoreReplica
from repro.multiring import RingSegmentBuffer
from repro.sim import Environment, ShardSpec, run_sharded
from repro.sim.topology import single_datacenter
from repro.bench.runner import Measurement, MeasurementWindow

PARTITIONS = 2
INSERTS_PER_PARTITION = 30
HORIZON = 1.0
SEGMENT_INTERVAL = 0.1
SEED = 42


def _config() -> MultiRingConfig:
    # Rate leveling keeps one partition's ring from stalling the other's turn
    # in the shared learner's round-robin while it has nothing to order.
    return MultiRingConfig(
        rate_interval=0.005,
        max_rate=1000.0,
        checkpoint_interval=None,
        trim_interval=None,
    )


def build_partition_shard(group: int) -> Measurement:
    """One shard: a complete MRP-Store partition ring plus its client.

    Runs inside the worker process.  The shard's in-ring replica stands in
    for the shared learner's per-ring half; ``stream_segments`` ships the
    ring's ordered decision stream to the parent at every barrier.
    """
    from repro.core.client import ClosedLoopClient
    from repro.kvstore.client import MRPStoreCommands, kv_request_factory
    from repro.kvstore.partitioning import HashPartitioner
    from repro.kvstore.service import MRPStoreService

    config = _config()
    system = AtomicMulticast(
        topology=single_datacenter(), config=config, seed=SEED
    )
    service = MRPStoreService(
        system,
        partition_groups=[group],
        acceptors_per_partition=2,
        replicas_per_partition=1,
    )

    commands = MRPStoreCommands(HashPartitioner([group]))

    def workload(sequence: int):
        return ("insert", f"p{group}-k{sequence:03d}", 64, None)

    ClosedLoopClient(
        system.env,
        f"writer{group}",
        frontends_by_group=service.frontend_map(),
        request_factory=kv_request_factory(commands, workload),
        concurrency=2,
        max_requests=INSERTS_PER_PARTITION,
        metric_prefix=f"partition{group}",
    )

    harness = Measurement(
        system, MeasurementWindow(warmup=0.1, duration=HORIZON - 0.1)
    )
    buffer = RingSegmentBuffer()
    for replica in service.all_replicas():
        replica.record_ring_segments(into=buffer)
    harness.stream_segments(buffer)
    return harness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the two partition shards")
    args = parser.parse_args()

    # The parent-hosted shared learner: one REAL MRP-Store replica merging
    # both partition rings, fed at every barrier.
    config = _config()
    parent_env = Environment()
    merged_replica = MRPStoreReplica(
        parent_env, "merged-replica", config=config, respond_to_clients=False
    )
    # The host combines every barrier's shard payloads (minimum watermark,
    # covered rings) and applies what merges; it also keeps the streams for
    # the offline-replay anchor.
    host = ReactiveReplicaHost(
        merged_replica, group_ids=list(range(PARTITIONS)),
        messages_per_round=config.messages_per_round,
    )
    progress = []

    def sink(segments_by_shard):
        host.sink(segments_by_shard)
        # Merged state is live: a client could be answered right here.
        progress.append((host.watermark, host.commands_applied,
                         merged_replica.entry_count()))

    specs = [
        ShardSpec(group, build_partition_shard, group)
        for group in range(PARTITIONS)
    ]
    run = run_sharded(
        specs,
        workers=args.workers,
        until=HORIZON,
        segment_interval=SEGMENT_INTERVAL,
        segment_sink=sink,
    )

    print(f"sharded run: {run.workers} worker(s), {run.windows} barriers, "
          f"{run.total_events} simulated events")
    for watermark, applied, entries in progress[:4]:
        print(f"  barrier t={watermark:.2f}: {applied} commands applied, "
              f"{entries} keys readable from merged state")

    # Client reads against the merged cross-partition state.
    for group in range(PARTITIONS):
        key = f"p{group}-k000"
        answer = merged_replica.apply_command(
            group, Command(op="read", args=(key,), group_id=group, size_bytes=32)
        )
        print(f"read {key!r} from merged state: found={answer['found']}")

    per_partition = [
        sum(1 for g, _, _ in host.deliveries if g == group)
        for group in range(PARTITIONS)
    ]
    print(f"merged deliveries per partition: {per_partition}")
    stats = host.latency_stats()
    print(f"merge freshness: mean {stats['mean_ms']:.1f} ms, "
          f"p95 {stats['p95_ms']:.1f} ms over {int(stats['count'])} commands")

    # The streaming merge is anchored to the offline replay: bit-identical.
    offline = host.offline_deliveries()
    reactive_matches_offline = host.deliveries == offline
    both_partitions_present = all(count > 0 for count in per_partition)
    print(f"reactive merge matches offline replay: {reactive_matches_offline}")
    print(f"merged state spans both partitions: {both_partitions_present}")
    if not (reactive_matches_offline and both_partitions_present):
        return 1
    print("shared-learner service answered from live merged state — quickstart OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

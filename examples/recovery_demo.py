#!/usr/bin/env python
"""Failure and recovery walk-through (the scenario behind Figure 8).

A single-partition MRP-Store with three replicas runs under constant load.
One replica is terminated; the others keep serving.  While it is down, the
survivors keep checkpointing and the acceptors trim their logs — so when the
replica comes back it cannot simply replay the whole history: it downloads the
most recent checkpoint from a peer and fetches only the missing instances
from the acceptors (Section 5.2).

Run with:  python examples/recovery_demo.py
"""

from __future__ import annotations

import random

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.swarm import ClientSwarm, shared_factory
from repro.kvstore import MRPStoreService
from repro.kvstore.client import kv_request_factory
from repro.workloads import constant, preload_keys, update_only_workload


def main() -> None:
    config = MultiRingConfig(
        batching_enabled=True,
        rate_interval=None,
        checkpoint_interval=3.0,
        trim_interval=6.0,
    )
    system = AtomicMulticast(seed=99, config=config)
    service = MRPStoreService(
        system, partition_groups=[0], acceptors_per_partition=3, replicas_per_partition=3,
    )
    service.preload(preload_keys(500))

    rng = random.Random(99)
    client = ClientSwarm(
        system.env, "load",
        frontends_by_group=service.frontend_map(),
        request_factory=shared_factory(
            kv_request_factory(service.commands, update_only_workload(rng, key_count=500))
        ),
        clients=1,
        arrival=constant(2000.0),
        metric_prefix="load",
    )

    victim = service.replicas[0][-1]
    survivor = service.replicas[0][0]

    def status(label):
        positions = [r.delivered_position(0) for r in service.all_replicas()]
        checkpoints = [r.checkpointer.checkpoints_taken if r.checkpointer else 0
                       for r in service.all_replicas()]
        acceptor = system.env.actor("kv0-node0").node(0).acceptor
        print(f"t={system.env.now:6.1f}s  {label}")
        print(f"    delivered instance per replica: {positions}")
        print(f"    checkpoints taken per replica:  {checkpoints}")
        print(f"    acceptor log trimmed up to:     {acceptor.trimmed_up_to}")

    system.start()
    system.run(until=5.0)
    status("steady state")

    system.crash_process(victim.name)
    print(f"\n>>> terminating {victim.name}")
    system.run(until=20.0)
    status(f"{victim.name} has been down for 15 s (service kept running)")

    print(f"\n>>> restarting {victim.name}; it recovers from a peer checkpoint + acceptor logs")
    system.restart_process(victim.name)
    system.run(until=30.0)
    status("after recovery")

    print(f"\nrecovery phase of {victim.name}: {victim.recovery_phase.value}")
    print(f"store sizes: victim={len(victim.store)} survivor={len(survivor.store)}")
    print(f"client observed {client.completed} completed requests "
          f"(offered {client.issued}) — the failure was masked")


if __name__ == "__main__":
    main()

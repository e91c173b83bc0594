#!/usr/bin/env python
"""dLog example: multiple logs, atomic multi-append, trim.

Builds a dLog deployment with two logs (one ring each), appends records from
concurrent clients — every third request is an atomic multi-append touching
both logs — and finally trims one log.  Prints per-log tail positions on every
replica to show that replicas agree.

Run with:  python examples/distributed_log.py
"""

from __future__ import annotations

from repro.core import AtomicMulticast, MultiRingConfig
from repro.dlog import DLogService
from repro.sim.disk import StorageMode


def main() -> None:
    config = MultiRingConfig(
        storage_mode=StorageMode.ASYNC_SSD,
        batching_enabled=True,
        rate_interval=0.005,
        max_rate=1000.0,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=11, config=config)
    service = DLogService(
        system,
        log_ids=[0, 1],
        acceptors_per_log=3,
        replica_count=2,
        dedicated_disks=True,
    )

    writer_a = service.create_append_client("writer-a", concurrency=4, append_bytes=1024,
                                            multi_append_every=3)
    writer_b = service.create_append_client("writer-b", concurrency=4, append_bytes=1024)

    print("appending from two concurrent writers for 5 simulated seconds...")
    system.start()
    system.run(until=5.0)

    print(f"writer-a completed {writer_a.completed} requests, "
          f"writer-b completed {writer_b.completed} requests")
    for replica in service.replicas:
        tails = {log_id: replica.log_for(log_id).next_position for log_id in service.log_ids}
        print(f"  {replica.name}: log tails = {tails}")
    first, second = service.replicas
    assert all(
        first.log_for(l).next_position == second.log_for(l).next_position
        for l in service.log_ids
    ), "replicas must agree on every log's contents"

    # Trim log 0 up to half of its current tail through the ordering layer.
    trim_position = first.log_for(0).next_position // 2
    trim_command = service.commands.trim(0, trim_position)

    from repro.net.message import ClientRequest
    frontend = service.frontend_map()[0]
    system.env.actor(frontend).deliver("example", ClientRequest(command=trim_command))
    system.run(until=6.0)
    print(f"\nafter trim(log 0, {trim_position}):")
    for replica in service.replicas:
        log = replica.log_for(0)
        print(f"  {replica.name}: trimmed_up_to={log.trimmed_up_to}, "
              f"segments={len(log.segments)}, cached={log.cached_entries}")


if __name__ == "__main__":
    main()

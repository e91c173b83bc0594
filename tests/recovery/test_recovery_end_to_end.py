"""End-to-end tests of the recovery protocol on a running deployment.

Every test here simulates many seconds of checkpoint/trim/recovery traffic
(the whole module costs ~130 s of the tier-1 budget), so the module is marked
``slow``: the default ``-m "not slow"`` tier skips it, CI runs it with
``-m slow``.  The fast fault-path coverage lives in ``test_recovery_faults.py``
and ``tests/chaos/``.
"""

import random

import pytest

pytestmark = pytest.mark.slow

from repro.core import AtomicMulticast, MultiRingConfig
from repro.kvstore import MRPStoreService
from repro.paxos.messages import CheckpointRequest
from repro.recovery.recover import RecoveryPhase
from repro.workloads import preload_keys, update_only_workload
from tests.conftest import store_client


def build_service(checkpoint_interval=1.0, trim_interval=2.0, replicas=3, seed=13):
    config = MultiRingConfig(
        rate_interval=None,
        checkpoint_interval=checkpoint_interval,
        trim_interval=trim_interval,
    )
    system = AtomicMulticast(seed=seed, config=config)
    service = MRPStoreService(
        system, partition_groups=[0], acceptors_per_partition=3, replicas_per_partition=replicas,
    )
    service.preload(preload_keys(200))
    rng = random.Random(seed)
    client = store_client(service, "load", update_only_workload(rng, key_count=200), concurrency=4)
    return system, service, client


class TestCheckpointAndTrim:
    def test_replicas_checkpoint_periodically(self):
        system, service, client = build_service()
        system.start()
        system.run(until=4.0)
        for replica in service.all_replicas():
            assert replica.checkpointer is not None
            assert replica.checkpointer.checkpoints_taken >= 2

    def test_acceptor_logs_get_trimmed(self):
        system, service, client = build_service()
        system.start()
        system.run(until=6.0)
        acceptor = system.env.actor("kv0-node0").node(0).acceptor
        assert acceptor.trimmed_up_to > 0

    def test_trim_point_never_exceeds_any_replica_checkpoint(self):
        system, service, client = build_service()
        system.start()
        system.run(until=6.0)
        acceptor = system.env.actor("kv0-node0").node(0).acceptor
        safes = [r.checkpointer.safe_instance(0) for r in service.all_replicas()]
        assert acceptor.trimmed_up_to <= max(safes)

    def test_no_trim_without_checkpoints(self):
        system, service, client = build_service(checkpoint_interval=None, trim_interval=1.0)
        system.start()
        system.run(until=4.0)
        acceptor = system.env.actor("kv0-node0").node(0).acceptor
        assert acceptor.trimmed_up_to == -1


class TestReplicaRecovery:
    def test_crashed_replica_catches_up_via_checkpoint_and_retransmission(self):
        system, service, client = build_service()
        victim = service.replicas[0][2]
        survivor = service.replicas[0][0]
        system.start()
        system.run(until=3.0)
        system.crash_process(victim.name)
        system.run(until=8.0)
        assert victim.commands_applied == 0
        system.restart_process(victim.name)
        system.run(until=12.0)
        assert victim.recovery_phase is RecoveryPhase.DONE
        assert victim.delivered_position(0) >= survivor.delivered_position(0) - 50
        assert len(victim.store) == len(survivor.store)

    def test_recovering_replica_installs_a_peer_checkpoint(self):
        system, service, client = build_service()
        victim = service.replicas[0][1]
        system.start()
        system.run(until=3.0)
        system.crash_process(victim.name)
        system.run(until=8.0)
        state_requests = []
        send = victim.send

        def recording_send(dest, message):
            if isinstance(message, CheckpointRequest) and message.include_state:
                state_requests.append(dest)
            send(dest, message)

        victim.send = recording_send
        system.restart_process(victim.name)
        system.run(until=12.0)
        assert victim.recovery_phase is RecoveryPhase.DONE
        peers = {r.name for r in service.replicas[0]} - {victim.name}
        assert len(state_requests) == 1 and state_requests[0] in peers

    def test_recovery_without_any_checkpoint_uses_acceptor_logs_only(self):
        system, service, client = build_service(checkpoint_interval=None, trim_interval=None)
        victim = service.replicas[0][2]
        survivor = service.replicas[0][0]
        system.start()
        system.run(until=2.0)
        system.crash_process(victim.name)
        system.run(until=4.0)
        system.restart_process(victim.name)
        system.run(until=8.0)
        assert victim.recovery_phase is RecoveryPhase.DONE
        assert victim.delivered_position(0) >= survivor.delivered_position(0) - 50

    def test_service_keeps_serving_while_a_replica_is_down(self):
        system, service, client = build_service()
        victim = service.replicas[0][2]
        system.start()
        system.run(until=3.0)
        completed_before = client.completed
        system.crash_process(victim.name)
        system.run(until=6.0)
        assert client.completed > completed_before

    def test_two_consecutive_failures_and_recoveries(self):
        system, service, client = build_service()
        victim = service.replicas[0][2]
        system.start()
        system.run(until=2.0)
        for crash_at, restart_at in ((2.0, 4.0), (6.0, 8.0)):
            system.crash_process(victim.name)
            system.run(until=restart_at)
            system.restart_process(victim.name)
            system.run(until=restart_at + 3.0)
        survivor = service.replicas[0][0]
        assert victim.recovery_phase is RecoveryPhase.DONE
        assert len(victim.store) == len(survivor.store)

"""Recovery under compounded faults: the helper dies mid-recovery.

The end-to-end recovery tests cover the happy path (crash, restart, catch
up).  These tests kill the process a recovering replica depends on at the
two critical hand-off points of ``recovery/recover.py``:

* the *checkpoint source* crashes after being chosen, while the recovering
  replica waits for the state transfer (``FETCHING_STATE``);
* the *acceptor serving retransmission* crashes just as the requests go out
  (``_begin_retransmission``).

In both cases the replica must stall cleanly (no crash, no corrupt state) and
converge after the operator restarts it once the infrastructure is back — the
same contract the chaos runner's healing epilogue relies on.
"""

import random

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.kvstore import MRPStoreService
from repro.paxos.messages import CheckpointRequest
from repro.recovery.recover import RecoveryManager, RecoveryPhase
from repro.workloads import preload_keys, update_only_workload
from tests.conftest import store_client


def build_service(checkpoint_interval=0.5, seed=31):
    config = MultiRingConfig(
        rate_interval=None,
        checkpoint_interval=checkpoint_interval,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=seed, config=config)
    service = MRPStoreService(
        system, partition_groups=[0], acceptors_per_partition=3,
        replicas_per_partition=3,
    )
    service.preload(preload_keys(60))
    client = store_client(
        service, "load", update_only_workload(random.Random(seed), key_count=60), concurrency=2
    )
    return system, service, client


class TestCheckpointSourceCrash:
    def test_source_crash_mid_install_stalls_cleanly_then_converges(self, monkeypatch):
        system, service, client = build_service()
        victim = service.replicas[0][2]
        system.start()
        system.run(until=1.5)  # a few checkpoints exist
        system.crash_process(victim.name)
        system.run(until=2.5)

        # Crash the chosen peer the moment the state request goes out: the
        # in-flight CheckpointRequest(include_state=True) is dropped at the
        # dead process and no state reply will ever arrive.
        original = RecoveryManager._choose_checkpoint
        killed = {}

        def choose_and_kill(self):
            peers = []
            send = self.host.send

            def recording_send(dest, message):
                if isinstance(message, CheckpointRequest) and message.include_state:
                    peers.append(dest)
                send(dest, message)

            self.host.send = recording_send
            try:
                original(self)
            finally:
                del self.host.send
            if self.host is victim and peers and not killed:
                killed["peer"] = peers[0]
                system.crash_process(peers[0])

        monkeypatch.setattr(RecoveryManager, "_choose_checkpoint", choose_and_kill)
        system.restart_process(victim.name)
        system.run(until=4.0)
        assert killed, "recovery never chose a checkpoint source"
        assert victim.recovery_phase is RecoveryPhase.FETCHING_STATE  # clean stall
        assert victim.alive

        # Infrastructure comes back; a fresh restart of the victim recovers.
        monkeypatch.setattr(RecoveryManager, "_choose_checkpoint", original)
        system.restart_process(killed["peer"])
        system.run(until=5.0)
        system.crash_process(victim.name)
        system.run(until=5.2)
        system.restart_process(victim.name)
        system.run(until=8.0)
        assert victim.recovery_phase is RecoveryPhase.DONE
        survivor = service.replicas[0][0]
        assert len(victim.store) == len(survivor.store)


class TestRetransmissionAcceptorCrash:
    def test_acceptor_crash_during_begin_retransmission_then_converges(self, monkeypatch):
        system, service, client = build_service(checkpoint_interval=None)
        victim = service.replicas[0][2]
        system.start()
        system.run(until=1.0)
        system.crash_process(victim.name)
        system.run(until=1.6)

        # No checkpoints: recovery goes straight to retransmission.  Crash
        # the serving acceptor right after the requests were sent, so they
        # are dropped in flight and no reply ever comes.
        original = RecoveryManager._begin_retransmission
        killed = {}

        def begin_and_kill(self, from_positions):
            original(self, from_positions)
            if self.host is victim and not killed:
                acceptor = self._acceptors_by_group[0][0]
                killed["acceptor"] = acceptor
                system.crash_process(acceptor)

        monkeypatch.setattr(RecoveryManager, "_begin_retransmission", begin_and_kill)
        system.restart_process(victim.name)
        system.run(until=3.0)
        assert killed, "recovery never reached retransmission"
        assert victim.recovery_phase is RecoveryPhase.RETRANSMITTING  # clean stall
        assert victim.alive

        # Restart the victim while the acceptor is still down: recovery must
        # route around the dead acceptor (it filters for live ones) and
        # complete off another acceptor's log.
        monkeypatch.setattr(RecoveryManager, "_begin_retransmission", original)
        system.crash_process(victim.name)
        system.run(until=3.2)
        system.restart_process(victim.name)
        system.run(until=5.5)
        assert victim.recovery_phase is RecoveryPhase.DONE
        survivor = service.replicas[0][0]
        assert victim.delivered_position(0) >= survivor.delivered_position(0) - 50
        # the dead acceptor stays dead throughout — recovery never needed it
        assert not system.env.actor(killed["acceptor"]).alive


class TestRecoveryQuorumEdge:
    def test_two_replica_partition_recovers_off_its_single_peer(self):
        """|partition| = 2: the only peer's answer must unblock recovery."""
        config = MultiRingConfig(
            rate_interval=None, checkpoint_interval=0.5, trim_interval=None,
        )
        system = AtomicMulticast(seed=7, config=config)
        service = MRPStoreService(
            system, partition_groups=[0], acceptors_per_partition=3,
            replicas_per_partition=2,
        )
        service.preload(preload_keys(40))
        client = store_client(
            service, "load", update_only_workload(random.Random(7), key_count=40), concurrency=2
        )
        victim = service.replicas[0][1]
        system.start()
        system.run(until=1.5)
        system.crash_process(victim.name)
        system.run(until=2.2)
        system.restart_process(victim.name)
        system.run(until=4.5)
        assert victim.recovery_phase is RecoveryPhase.DONE
        survivor = service.replicas[0][0]
        assert len(victim.store) == len(survivor.store)

"""Integration tests of the Ring Paxos node running on the simulated network."""

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.net.ring import RingOverlay
from repro.ringpaxos.coordinator import CoordinatorState
from repro.sim.disk import StorageMode

from tests.conftest import RecordingProcess, SendTap, mutate


def build_ring(storage_mode=StorageMode.IN_MEMORY, members=3, roles="pal", seed=1,
               batching=False):
    system, processes = deploy_ring(storage_mode, members, roles, seed, batching)
    system.start()
    return system, processes


def deploy_ring(storage_mode=StorageMode.IN_MEMORY, members=3, roles="pal", seed=1,
                batching=False):
    """:func:`build_ring` before its start (which already sends Phase 1)."""
    config = MultiRingConfig(
        storage_mode=storage_mode,
        batching_enabled=batching,
        rate_interval=None,
        checkpoint_interval=None,
        trim_interval=None,
    )
    system = AtomicMulticast(seed=seed, config=config)
    processes = [RecordingProcess(system.env, f"n{i}") for i in range(members)]
    system.create_ring(0, [(p.name, roles) for p in processes])
    return system, processes


class TestMajorityQuorum:
    """A value only a minority of the acceptors voted for is never decided."""

    @staticmethod
    def _deliveries_of_a_coordinator_only_vote():
        system, processes = build_ring()
        system.run(until=0.05)  # Phase 1 completes under the real majority
        # n1 and n2 promise a higher ballot, so they refuse the coordinator's
        # next Phase 2: the last acceptor sees one vote of three.
        for process in processes[1:]:
            process.node(0).acceptor.receive_phase1a(0, CoordinatorState.PHASE1_WINDOW, 99)
        processes[0].multicast(0, payload="minority", size_bytes=64)
        system.run(until=0.5)
        return [p.delivered_payloads(0) for p in processes]

    def test_one_vote_of_three_decides_nothing(self):
        assert self._deliveries_of_a_coordinator_only_vote() == [[], [], []]

    def test_an_off_by_one_majority_is_caught(self, monkeypatch):
        wrong = mutate(RingOverlay.__init__, ("len(acceptors) // 2 + 1", "len(acceptors) // 2"))
        monkeypatch.setattr(RingOverlay, "__init__", wrong)
        assert self._deliveries_of_a_coordinator_only_vote() != [[], [], []]


class TestBasicOrdering:
    def test_all_learners_deliver_everything_in_the_same_order(self):
        system, processes = build_ring()
        for i in range(20):
            processes[i % 3].multicast(0, payload=f"v{i}", size_bytes=256)
        system.run(until=1.0)
        sequences = [p.delivered_payloads(0) for p in processes]
        assert len(sequences[0]) == 20
        assert sequences[0] == sequences[1] == sequences[2]

    def test_single_proposer_fifo_like_order(self):
        system, processes = build_ring()
        for i in range(10):
            processes[0].multicast(0, payload=i, size_bytes=64)
        system.run(until=1.0)
        assert processes[1].delivered_payloads(0) == list(range(10))

    def test_delivery_requires_majority_of_acceptors(self):
        # 3 acceptors: killing one (not the coordinator, not breaking the ring
        # path) after reconfiguration still lets values be ordered.
        system, processes = build_ring()
        system.crash_process("n2")
        system.remove_from_ring(0, "n2")
        processes[0].multicast(0, payload="after-failure", size_bytes=64)
        system.run(until=1.0)
        assert "after-failure" in processes[1].delivered_payloads(0)
        assert processes[2].delivered_payloads(0) == []

    def test_learner_only_member_also_delivers(self):
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=2, config=config)
        acceptors = [RecordingProcess(system.env, f"a{i}") for i in range(3)]
        observer = RecordingProcess(system.env, "observer")
        members = [(a.name, "pal") for a in acceptors] + [(observer.name, "l")]
        system.create_ring(0, members)
        system.start()
        acceptors[0].multicast(0, payload="hello", size_bytes=64)
        system.run(until=1.0)
        assert observer.delivered_payloads(0) == ["hello"]

    def test_value_crosses_each_link_once(self):
        system, processes = deploy_ring()
        tap = SendTap(system.network)
        system.start()
        processes[0].multicast(0, payload="x", size_bytes=10_000)
        system.run(until=1.0)
        # 3 processes: the 10 KB value crosses at most 3 links (plus small
        # control traffic), so total bytes stay well under 5 copies.
        assert tap.bytes < 5 * 10_000


class TestStorageModes:
    @pytest.mark.parametrize("mode", [
        StorageMode.IN_MEMORY,
        StorageMode.ASYNC_SSD,
        StorageMode.ASYNC_HDD,
        StorageMode.SYNC_SSD,
        StorageMode.SYNC_HDD,
    ])
    def test_every_storage_mode_delivers(self, mode):
        system, processes = build_ring(storage_mode=mode)
        for i in range(5):
            processes[0].multicast(0, payload=i, size_bytes=512)
        system.run(until=2.0)
        assert processes[2].delivered_payloads(0) == list(range(5))

    def test_sync_mode_is_slower_than_memory(self):
        def first_delivery_time(mode):
            system, processes = build_ring(storage_mode=mode, seed=7)
            processes[0].multicast(0, payload="x", size_bytes=1024)
            system.run(until=2.0)
            assert processes[0].delivery_times, f"no delivery observed for {mode}"
            return processes[0].delivery_times[0]

        assert first_delivery_time(StorageMode.SYNC_HDD) > first_delivery_time(StorageMode.IN_MEMORY)

    def test_sync_ssd_is_faster_than_sync_hdd(self):
        def first_delivery_time(mode):
            system, processes = build_ring(storage_mode=mode, seed=9)
            processes[0].multicast(0, payload="x", size_bytes=4096)
            system.run(until=2.0)
            return processes[0].delivery_times[0]

        assert first_delivery_time(StorageMode.SYNC_SSD) < first_delivery_time(StorageMode.SYNC_HDD)


class TestBatching:
    def test_instance_batching_reduces_consensus_instances(self):
        system_plain, procs_plain = build_ring(batching=False, seed=3)
        for i in range(30):
            procs_plain[0].multicast(0, payload=i, size_bytes=512)
        system_plain.run(until=1.0)
        plain_instances = procs_plain[0].node(0).coordinator.ledger.next_instance

        system_batch, procs_batch = build_ring(batching=True, seed=3)
        for i in range(30):
            procs_batch[0].multicast(0, payload=i, size_bytes=512)
        system_batch.run(until=1.0)
        batch_instances = procs_batch[0].node(0).coordinator.ledger.next_instance

        assert procs_batch[1].delivered_payloads(0).count(0) == 1
        assert len(procs_batch[1].delivered_payloads(0)) == 30
        assert batch_instances <= plain_instances


class TestReconfiguration:
    def test_remove_and_readd_member(self):
        system, processes = build_ring()
        system.crash_process("n1")
        overlay = system.remove_from_ring(0, "n1")
        assert "n1" not in overlay
        processes[0].multicast(0, payload="while-down", size_bytes=64)
        system.run(until=0.5)
        assert "while-down" in processes[2].delivered_payloads(0)

        system.restart_process("n1")
        system.add_to_ring(0, ("n1", "pal"))
        processes[0].multicast(0, payload="after-rejoin", size_bytes=64)
        system.run(until=1.5)
        assert "after-rejoin" in processes[2].delivered_payloads(0)

    def test_removing_coordinator_elects_new_one(self):
        system, processes = build_ring()
        old_coordinator = system.ring(0).coordinator
        system.crash_process(old_coordinator)
        overlay = system.remove_from_ring(0, old_coordinator)
        assert overlay.coordinator != old_coordinator
        survivor = [p for p in processes if p.name != old_coordinator][0]
        survivor.multicast(0, payload="new-era", size_bytes=64)
        system.run(until=2.0)
        other = [p for p in processes if p.name not in (old_coordinator, survivor.name)][0]
        assert "new-era" in other.delivered_payloads(0)

    def test_cannot_install_overlay_excluding_self(self):
        system, processes = build_ring()
        from repro.net.ring import RingMember, RingOverlay
        foreign = RingOverlay(0, [RingMember(name="n0", acceptor=True)])
        with pytest.raises(ValueError):
            processes[1].node(0).update_overlay(foreign)


class TestTakeoverRepair:
    """A new coordinator finishes its crashed predecessor's instances."""

    def build_four_ring(self, seed=9):
        config = MultiRingConfig(
            rate_interval=0.005, max_rate=500.0,
            checkpoint_interval=None, trim_interval=None,
            gap_repair_interval=0.2,
        )
        system = AtomicMulticast(seed=seed, config=config)
        processes = [RecordingProcess(system.env, f"n{i}") for i in range(4)]
        system.create_ring(0, [(p.name, "pal") for p in processes])
        system.start()
        return system, processes

    def test_coordinator_crash_mid_stream_converges(self):
        system, processes = self.build_four_ring()
        coordinator = system.ring(0).coordinator
        sim = system.env.simulator
        survivors = [p for p in processes if p.name != coordinator]
        for i in range(30):
            sender = survivors[i % len(survivors)]
            sim.call_later(0.001 * i, lambda s=sender, i=i: s.alive and
                           s.multicast(0, payload=f"m{i}", size_bytes=64))
        sim.call_later(0.012, lambda: system.crash_process(coordinator))
        system.run(until=3.0)
        sequences = [p.delivered_payloads(0) for p in survivors]
        # every survivor delivers the same sequence, with no message sent
        # before or after the takeover lost by the ordering layer itself
        assert sequences[0] == sequences[1] == sequences[2]
        assert len(sequences[0]) >= 25

    def test_takeover_reproposal_prefers_highest_ballot(self):
        """Classic Paxos value selection: reported low-ballot accepted values
        must not beat the new coordinator's own higher-ballot accept."""
        from repro.paxos.messages import ProposalValue
        from repro.ringpaxos.coordinator import CoordinatorState

        system, processes = self.build_four_ring()
        system.run(until=0.1)
        coordinator = system.ring(0).coordinator
        node = [p for p in processes if p.name != coordinator][0].node(0)
        # make this node a takeover coordinator by hand
        node._become_coordinator = lambda: None  # keep overlay machinery out
        node.coordinator = CoordinatorState(0, 7, node.config)
        node.coordinator.phase1_ready = True
        node._takeover_repair_pending = True
        stale = ProposalValue(payload="stale", size_bytes=8)
        newer = ProposalValue(payload="newer", size_bytes=8)
        instance = 10_000  # far beyond any live traffic
        node._takeover_accepted[instance] = (1, stale)
        node.acceptor.receive_phase2(instance, 5, newer)
        node.coordinator.ledger.observe_instance(instance)
        emitted = []
        node._emit_phase2 = lambda i, v, span: emitted.append((i, v.payload))
        node._takeover_repair()
        choices = dict(emitted)
        assert choices[instance] == "newer"
        # untouched holes below are skip-filled, not invented
        assert all(p == "newer" or i != instance for i, p in emitted)

    def test_takeover_skip_fills_undecided_holes(self):
        from repro.ringpaxos.coordinator import CoordinatorState

        system, processes = self.build_four_ring()
        system.run(until=0.05)
        node = processes[1].node(0)
        node.coordinator = CoordinatorState(0, 9, node.config)
        node.coordinator.phase1_ready = True
        node._takeover_repair_pending = True
        hole = 20_000
        node.coordinator.ledger.observe_instance(hole)
        emitted = []
        node._emit_phase2 = lambda i, v, span: emitted.append((i, v))
        node._takeover_repair()
        values = {i: v for i, v in emitted}
        assert hole in values
        assert values[hole].is_skip()


class TestCoordinatorCrashSafety:
    """Chaos seed 886's interleaving, replayed on one ring of three acceptors.

    The coordinator emits a rate-leveling skip range at its ballot; it and
    its successor vote for it — a majority, so the skip may be chosen — and
    the coordinator crashes before anyone learns the decision.  The successor
    takes over at a higher ballot.
    """

    @staticmethod
    def crash_after_skip_range_votes():
        from repro.ringpaxos.coordinator import CoordinatorState

        system, processes = build_ring(members=3)
        for i in range(5):
            processes[i % 3].multicast(0, payload=f"m{i}", size_bytes=64)
        system.run(until=0.05)
        old = system.env.actor(system.ring(0).coordinator).node(0)
        first = old.coordinator.ledger.next_instance
        last = first + 9
        skip = CoordinatorState.skip_value()
        for name in (old.host.name, old.overlay.successor(old.host.name)):
            system.env.actor(name).node(0).acceptor.receive_phase2_range(
                first, last, old.coordinator.ballot, skip
            )
        system.crash_process(old.host.name)
        survivors = [p for p in processes if p.name != old.host.name]
        return system, survivors, first, last

    def test_takeover_covers_its_own_skip_votes_above_its_ledger(self):
        """Skip votes are never logged, so only the acceptor's highest *voted*
        instance tells the new coordinator that the range is in use."""
        system, survivors, first, last = self.crash_after_skip_range_votes()
        for i in range(20):
            survivors[i % 2].multicast(0, payload=f"n{i}", size_bytes=64)
        system.run(until=0.5)
        new = system.env.actor(system.ring(0).coordinator).node(0)
        assert new.host.name in {p.name for p in survivors}
        assert new.coordinator.ledger.next_instance > last
        for process in survivors:
            decided = process.node(0).acceptor.decided_between(first, last)
            assert [i for i, _ in decided] == list(range(first, last + 1))
            assert all(value.is_skip() for _, value in decided)
            assert len(process.delivered) == 25

    @pytest.mark.parametrize("span", [1, 10])
    def test_a_refused_vote_is_not_counted(self, span):
        """The third acceptor promised the new ballot before the old ballot's
        Phase 2 reached it: it refuses, and the message leaves without its vote."""
        from repro.paxos.messages import Phase2Ring
        from repro.ringpaxos.coordinator import CoordinatorState

        system, _ = build_ring(members=3)
        system.run(until=0.05)
        coordinator = system.env.actor(system.ring(0).coordinator).node(0)
        successor = coordinator.overlay.successor(coordinator.host.name)
        third = system.env.actor(coordinator.overlay.successor(successor)).node(0)
        ballot = coordinator.coordinator.ballot
        first = coordinator.coordinator.ledger.next_instance
        assert third.acceptor.receive_phase1a(first, first + 2**20, ballot + 1)
        message = Phase2Ring(
            ring_id=0, instance=first, ballot=ballot, value=CoordinatorState.skip_value(),
            votes=(coordinator.host.name, successor), origin=coordinator.host.name, span=span,
        )
        third._handle_phase2(successor, message)
        assert message.votes == (coordinator.host.name, successor)
        assert third.acceptor.accepted_value(first) is None

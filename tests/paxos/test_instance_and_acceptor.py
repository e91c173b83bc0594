"""Tests of the consensus core: instance rules, ledgers and acceptor state."""

from hypothesis import given, settings, strategies as st

from repro.paxos.acceptor import AcceptorState
from repro.paxos.instance import AcceptorInstance, InstanceLedger
from repro.paxos.messages import ProposalValue, SKIP
from repro.ringpaxos.learner import RingLearner
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode


def value(payload=b"v", size=64):
    return ProposalValue(payload=payload, size_bytes=size)


class TestAcceptorInstance:
    def test_promise_granted_for_higher_ballot(self):
        instance = AcceptorInstance(0)
        promise = instance.receive_phase1a(5)
        assert promise.granted and promise.ballot == 5
        assert not instance.receive_phase1a(3).granted
        assert instance.receive_phase1a(7).granted

    def test_accept_requires_ballot_at_least_promised(self):
        instance = AcceptorInstance(0)
        instance.receive_phase1a(5)
        assert not instance.receive_phase2a(3, value()).accepted
        assert instance.receive_phase2a(5, value()).accepted
        assert instance.has_accepted

    def test_promise_reports_previously_accepted_value(self):
        instance = AcceptorInstance(0)
        v = value(b"first")
        instance.receive_phase2a(1, v)
        promise = instance.receive_phase1a(10)
        assert promise.granted
        assert promise.accepted_ballot == 1
        assert promise.accepted_value is v

    def test_accept_updates_promised_ballot(self):
        instance = AcceptorInstance(0)
        instance.receive_phase2a(4, value())
        assert not instance.receive_phase1a(4).granted
        assert instance.receive_phase1a(5).granted

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_accepted_ballot_never_decreases(self, ballots):
        """Safety: an acceptor's accepted ballot is monotonic."""
        instance = AcceptorInstance(0)
        highest = -1
        for ballot in ballots:
            result = instance.receive_phase2a(ballot, value())
            if result.accepted:
                assert ballot >= highest
                highest = ballot
            assert instance.accepted_ballot >= highest


class TestInstanceLedger:
    def test_allocation_is_sequential(self):
        ledger = InstanceLedger()
        assert ledger.allocate() == 0
        assert ledger.allocate() == 1
        assert ledger.next_instance == 2

    def test_observe_instance_advances_allocation(self):
        ledger = InstanceLedger()
        ledger.observe_instance(10)
        assert ledger.allocate() == 11

    # Which instances are decided is the learner's bookkeeping (it kept it in
    # an InstanceLedger of its own until it stopped storing what it emitted).
    def test_decide_and_contiguity(self):
        emitted = []
        learner = RingLearner(0, lambda ring, instance, v: emitted.append(instance))
        learner.observe_decision(0, value())
        learner.observe_decision(2, value())
        assert learner.highest_contiguous_decided == 0
        learner.observe_decision(1, value())
        assert learner.highest_contiguous_decided == 2
        learner.observe_decision(1, value())  # duplicate
        assert emitted == [0, 1, 2]

    def test_undecided_below(self):
        learner = RingLearner(0, lambda *delivery: None)
        learner.observe_decision(0, value())
        learner.observe_decision(3, value())
        assert learner.gaps() == [1, 2]
        assert [learner.is_decided(i) for i in range(5)] == [True, False, False, True, False]

    def test_decisions_in_order_and_forget(self):
        emitted = []
        learner = RingLearner(0, lambda ring, instance, v: emitted.append(instance))
        for i in (3, 1, 2):
            learner.observe_decision(i, value(str(i).encode()))
        assert sorted(learner.decided_map) == [1, 2, 3] and emitted == []
        learner.fast_forward(2)
        assert sorted(learner.decided_map) == [3]  # forgotten up to 2 ...
        assert learner.is_decided(1) and learner.highest_contiguous_decided == 3
        learner.observe_decision(4, value())
        assert emitted == [3, 4] and not learner.decided_map  # ... emitted ones dropped


class TestAcceptorState:
    def _acceptor(self, mode=StorageMode.IN_MEMORY):
        env = Environment()
        return env, AcceptorState(env, "a0", ring_id=0, storage_mode=mode)

    def test_vote_is_logged_and_decidable(self):
        env, acceptor = self._acceptor(StorageMode.SYNC_SSD)
        result = acceptor.receive_phase2(0, 1, value())
        env.simulator.run()
        assert result.accepted
        assert 0 in acceptor.log
        acceptor.record_decision(0, value())
        assert acceptor.is_decided(0)

    def test_skip_votes_bypass_the_device(self):
        env, acceptor = self._acceptor(StorageMode.SYNC_HDD)
        skip = ProposalValue(payload=SKIP, size_bytes=0)
        acceptor.receive_phase2_range(0, 9, 1, skip)
        env.simulator.run()
        assert acceptor.log.disk.write_count == 0
        assert acceptor.promised_ballot(5) == 1

    def test_phase1_window_promise_covers_untouched_instances(self):
        env, acceptor = self._acceptor()
        assert acceptor.receive_phase1a(0, 1 << 20, ballot=3)
        assert acceptor.promised_ballot(12345) == 3
        # lower or equal ballots are refused afterwards
        assert not acceptor.receive_phase1a(0, 1 << 20, ballot=3)
        assert not acceptor.receive_phase1a(0, 1 << 20, ballot=2)
        assert acceptor.receive_phase1a(0, 1 << 20, ballot=5)

    def test_phase1_window_promotes_existing_instances(self):
        env, acceptor = self._acceptor()
        acceptor.receive_phase2(0, 1, value(b"old"))
        acceptor.receive_phase1a(0, 100, ballot=7)
        # the instance that already voted now refuses ballots below 7
        assert not acceptor.receive_phase2(0, 3, value(b"stale")).accepted
        assert acceptor.receive_phase2(0, 7, value(b"new")).accepted

    def test_retransmission_ranges(self):
        env, acceptor = self._acceptor()
        for i in range(10):
            acceptor.receive_phase2(i, 1, value(payload=i))
            acceptor.record_decision(i, value(payload=i))
        assert [i for i, _ in acceptor.decided_between(2, 5)] == [2, 3, 4, 5]
        assert [i for i, _ in acceptor.decided_from(7)] == [7, 8, 9]
        assert acceptor.highest_decided == 9

    def test_trim_discards_state_and_refuses_old_votes(self):
        env, acceptor = self._acceptor()
        for i in range(10):
            acceptor.receive_phase2(i, 1, value())
            acceptor.record_decision(i, value())
        acceptor.trim(5)
        assert acceptor.trimmed_up_to == 5
        assert acceptor.decided_between(0, 9) == acceptor.decided_between(6, 9)
        assert not acceptor.receive_phase2(3, 2, value()).accepted
        assert not acceptor.is_decided(3)
        # trimming backwards is a no-op
        assert acceptor.trim(2) == 0

    def test_crash_and_recover_from_persistent_log(self):
        env, acceptor = self._acceptor(StorageMode.SYNC_SSD)
        acceptor.receive_phase2(0, 3, value(b"keep"))
        env.simulator.run()
        acceptor.crash()
        assert acceptor.accepted_value(0) is None
        restored = acceptor.recover_from_log()
        assert restored == 1
        assert acceptor.accepted_value(0).payload == b"keep"

    def test_crash_with_in_memory_storage_loses_votes(self):
        env, acceptor = self._acceptor(StorageMode.IN_MEMORY)
        acceptor.receive_phase2(0, 1, value())
        acceptor.crash()
        assert acceptor.recover_from_log() == 0

    def test_slot_overflow_falls_back_to_log_only(self):
        env = Environment()
        acceptor = AcceptorState(env, "a0", ring_id=0, slot_count=2)
        for i in range(5):
            acceptor.record_decision(i, value())
        # decisions beyond the slot capacity are still retransmittable
        assert len(acceptor.decided_from(0)) == 5

"""The columnar instance slab: invariants, and what became cheap because of it.

Equivalence with the dict layout is ``tests/paxos/test_acceptor_fastpath.py``'s
job (one operation stream, every public accessor); these tests pin the slab's
own shape — equal-length columns, ``base == trimmed_up_to + 1``, empty side
dicts in a steady run — and the accessors that used to walk or sort every
retained instance: ``highest_decided`` is one scan of the flag column,
``trim`` is one prefix delete, ``receive_phase1a`` touches only the
window, ``decided_from`` is a slice.
"""

from __future__ import annotations

import pytest

from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode
from repro.storage.slab import DECIDED, LOGGED, VOTED, InstanceSlab
from repro.storage.wal import WriteAheadLog


def value(instance: int) -> ProposalValue:
    payload = SKIP if instance % 5 == 4 else f"v{instance}"
    return ProposalValue(payload=payload, size_bytes=100 + instance, proposal_id=instance)


def steady(count: int, mode=StorageMode.IN_MEMORY) -> AcceptorState:
    """An acceptor after ``count`` in-order votes and decisions."""
    acceptor = AcceptorState(Environment(), "a0", ring_id=0, storage_mode=mode)
    for instance in range(count):
        acceptor.receive_phase2(instance, 1, value(instance))
        acceptor.record_decision(instance, acceptor.accepted_value(instance))
    return acceptor


def assert_well_formed(slab: InstanceSlab) -> None:
    size = len(slab.flags)
    assert len(slab.values) == len(slab.ballots) == size
    assert slab.next == slab.base + size and slab.unlogged == -1
    for index in range(size):
        instance, flag = slab.base + index, slab.flags[index]
        if not flag & VOTED:
            assert slab.values[index] is None and slab.ballots[index] == -1
        for view, side in slab.sides.items():
            if flag & view and instance not in side:
                assert flag & VOTED  # a bare flag means "it is the vote"
            if instance in side:
                assert flag & view


def test_a_steady_run_is_columns_and_flags_only():
    acceptor = steady(200)
    slab = acceptor._slab
    assert_well_formed(slab)
    assert not any(slab.sides.values())
    assert len(slab.flags) == 200 and slab.base == 0
    non_skips = [i for i in range(200) if i % 5 != 4]
    assert slab.instances(LOGGED) == non_skips
    assert acceptor.highest_decided == 199


def test_trim_is_one_prefix_delete_and_moves_base():
    acceptor = steady(200)
    slab = acceptor._slab
    removed = acceptor.trim(99)
    assert removed == 100 + 100 + 80  # votes + decisions + records (20 skips are not logged)
    assert slab.base == acceptor.trimmed_up_to + 1 == 100 and len(slab.flags) == 100
    assert len(acceptor.log) == 80 and acceptor.log.instances()[0] == 100
    assert acceptor.highest_decided == 199
    assert acceptor.decided_from(0)[0][0] == 100
    assert_well_formed(slab)
    assert acceptor.trim(50) == 0 and slab.base == 100  # backwards: a no-op
    acceptor.trim(500)  # past everything held: nothing left, base still moves
    assert (len(slab.flags), slab.base, acceptor.highest_decided) == (0, 501, -1)
    assert not acceptor.receive_phase2(500, 1, value(500)).accepted
    assert acceptor.receive_phase2(501, 1, value(501)).accepted
    assert_well_formed(slab)


def test_phase1a_touches_only_the_window():
    acceptor = steady(100)
    # Terminates: the walk is over what is held inside the window, not over
    # the window (2^60 instances) and not over everything held.
    assert acceptor.receive_phase1a(90, 1 << 60, ballot=7)
    assert [acceptor.promised_ballot(i) for i in (0, 89, 90, 99)] == [1, 1, 7, 7]
    assert acceptor.promised_ballot(100) == acceptor.promised_ballot(1 << 50) == 7  # untouched
    assert acceptor.receive_phase1a(0, 10, ballot=9)
    assert [acceptor.promised_ballot(i) for i in (0, 10, 11, 90)] == [9, 9, 1, 7]


def test_decided_from_and_between_are_slices():
    acceptor = steady(60)
    everything = acceptor.decided_from(0)
    assert [i for i, _ in everything] == list(range(60))
    assert acceptor.decided_from(45) == everything[45:]
    assert acceptor.decided_between(10, 19) == everything[10:20]
    assert acceptor.decided_between(55, 500) == everything[55:]
    assert acceptor.decided_from(60) == [] == acceptor.decided_between(70, 80)
    acceptor.trim(29)
    assert acceptor.decided_from(0) == everything[30:] == acceptor.decided_between(0, 99)


def test_highest_decided_is_read_off_the_flag_column():
    acceptor = steady(10)
    acceptor.record_decision(40, value(40))  # ahead, never voted for
    assert acceptor.highest_decided == 40
    acceptor.trim(20)
    assert acceptor.highest_decided == 40
    acceptor.trim(40)
    assert acceptor.highest_decided == -1
    acceptor.record_decision(41, value(41))
    acceptor.crash()
    assert acceptor.highest_decided == -1


def test_a_hole_is_padded_and_filled_later():
    acceptor = AcceptorState(Environment(), "a0", ring_id=0)
    slab = acceptor._slab
    ahead = value(8)
    assert acceptor.receive_phase2(8, 1, ahead).accepted
    acceptor.record_decision(8, ahead)
    assert len(slab.flags) == 9 and slab.flags[:8] == bytes(8)  # 17 bytes per padded instance
    assert acceptor.accepted_in_range(0, 99) == [(8, 1, ahead)]
    for instance in range(8):
        assert acceptor.accepted_value(instance) is None and not acceptor.is_decided(instance)
        acceptor.receive_phase2(instance, 1, value(instance))
    assert [i for i, _, _ in acceptor.accepted_in_range(0, 99)] == list(range(9))
    assert acceptor.decided_from(0) == [(8, ahead)] and acceptor.log.get(8).value is ahead
    assert not any(slab.sides.values())
    assert_well_formed(slab)
    with pytest.raises(ValueError):
        acceptor.trim(3) and acceptor.log.append(2, 1, value(2), 102)  # below the trimmed point


def test_a_crash_keeps_what_the_storage_mode_keeps():
    for mode, kept in [(StorageMode.IN_MEMORY, 0), (StorageMode.SYNC_SSD, 8), (StorageMode.ASYNC_SSD, 8)]:
        acceptor = steady(10, mode)
        acceptor.env.run()  # async: the flush buffer reaches the device
        acceptor.receive_phase2(10, 1, value(10))  # async: still in the buffer
        acceptor.crash()
        slab = acceptor._slab
        assert_well_formed(slab)
        assert len(acceptor.log) == kept + (mode is StorageMode.SYNC_SSD)
        assert acceptor.accepted_in_range(0, 99) == [] and acceptor.decided_from(0) == []
        assert acceptor.recover_from_log() == len(acceptor.log)
        assert [i for i, _, _ in acceptor.accepted_in_range(0, 99)] == acceptor.log.instances()
        assert_well_formed(slab)


def test_a_log_alone_sits_on_a_slab_of_its_own():
    log = WriteAheadLog(Environment())
    for instance in (3, 1, 2):
        log.append(instance, 1, value(instance), 10)  # size differs from the value's
    assert log.instances() == [1, 2, 3] and log.get(1).size_bytes == 10 and len(log) == 3
    assert_well_formed(log.slab)


def test_a_changed_vote_leaves_each_view_the_content_it_had():
    slab = InstanceSlab()
    old, new = value(0), value(1)
    slab.set_vote(0, 1, 1, old)
    slab.attach(0, LOGGED, None, shared=True)
    slab.attach(0, DECIDED, None, shared=True)
    assert not any(slab.sides.values())
    slab.set_vote(0, 5, 5, new)
    record = slab.get(0, LOGGED)
    assert (record.ballot, record.value, record.size_bytes) == (1, old, old.size_bytes)
    assert slab.get(0, DECIDED) is old and slab.vote(0) == (5, 5, new)
    assert_well_formed(slab)


def test_drop_clears_one_view_and_counts_what_it_held():
    acceptor = steady(20)
    slab = acceptor._slab
    assert slab.drop(LOGGED, 9) == 8  # instances 4 and 9 are skips, never logged
    assert acceptor.log.instances()[0] == 10 and acceptor.highest_decided == 19
    assert [i for i, _ in acceptor.decided_from(0)] == list(range(20))
    assert slab.base == 0 and slab.drop(LOGGED, 9) == 0
    assert_well_formed(slab)


def test_phase1b_reports_the_accepted_ballot_under_a_raised_promise():
    acceptor = steady(5)
    acceptor.receive_phase1a(0, 100, ballot=7)
    assert acceptor.promised_ballot(2) == 7
    assert [(i, b) for i, b, _ in acceptor.accepted_in_range(0, 99)] == [(i, 1) for i in range(5)]
    assert_well_formed(acceptor._slab)

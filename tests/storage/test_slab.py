"""The columnar instance slab: invariants, and what became cheap because of it.

Equivalence with the dict layout is ``tests/paxos/test_acceptor_fastpath.py``'s
job (one operation stream, every public accessor); these tests pin the slab's
own shape — equal-length columns, ``base == trimmed_up_to + 1``, empty side
dicts in a steady run — and the accessors that used to walk or sort every
retained instance: ``highest_decided`` and ``SlotBuffer.bytes_used`` are
counters, ``trim`` is one prefix delete, ``receive_phase1a`` touches only the
window, ``decided_from`` is a slice.
"""

from __future__ import annotations

import pytest

from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode
from repro.storage.slab import IN_SLOT, LOGGED, VOTED, InstanceSlab
from repro.storage.slots import SlotBuffer
from repro.storage.wal import WriteAheadLog


def value(instance: int) -> ProposalValue:
    payload = SKIP if instance % 5 == 4 else f"v{instance}"
    return ProposalValue(payload=payload, size_bytes=100 + instance, proposal_id=instance)


def steady(count: int, mode=StorageMode.IN_MEMORY, slot_count=15_000) -> AcceptorState:
    """An acceptor after ``count`` in-order votes and decisions."""
    acceptor = AcceptorState(Environment(), "a0", ring_id=0, storage_mode=mode,
                             slot_count=slot_count)
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
    assert slab.slots_used == len(slab.instances(IN_SLOT))
    assert slab.slot_bytes == sum(slab.get(i, IN_SLOT).size_bytes for i in slab.instances(IN_SLOT))
    assert slab.slot_top >= slab.highest(IN_SLOT)


def test_a_steady_run_is_columns_and_flags_only():
    acceptor = steady(200, slot_count=50)
    slab = acceptor._slab
    assert_well_formed(slab)
    assert not any(slab.sides.values())
    assert len(slab.flags) == 200 and slab.base == 0
    non_skips = [i for i in range(200) if i % 5 != 4]
    assert slab.instances(LOGGED) == non_skips
    assert slab.instances(IN_SLOT) == non_skips[:50]  # first come, first served
    assert acceptor.slots.bytes_used == sum(100 + i for i in non_skips[:50])
    assert acceptor.highest_decided == 199


def test_trim_is_one_prefix_delete_and_moves_base():
    acceptor = steady(200, slot_count=50)
    slab = acceptor._slab
    removed = acceptor.trim(99)
    assert removed == 100 + 100 + 80  # votes + decisions + records (20 skips are not logged)
    assert slab.base == acceptor.trimmed_up_to + 1 == 100 and len(slab.flags) == 100
    assert len(acceptor.log) == 80 and acceptor.log.instances()[0] == 100
    assert len(acceptor.slots) == 0 and acceptor.slots.bytes_used == 0  # all 50 were below
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
    acceptor = AcceptorState(Environment(), "a0", ring_id=0, slot_count=4)
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
        assert len(acceptor.slots) == 0
        assert acceptor.recover_from_log() == len(acceptor.log)
        assert [i for i, _, _ in acceptor.accepted_in_range(0, 99)] == acceptor.log.instances()
        assert_well_formed(slab)


def test_a_log_or_slot_buffer_alone_sits_on_a_slab_of_its_own():
    log = WriteAheadLog(Environment())
    for instance in (3, 1, 2):
        log.append(instance, 1, value(instance), 10)  # size differs from the value's
    assert log.instances() == [1, 2, 3] and log.get(1).size_bytes == 10
    assert log.trim(2) == 2 and log.instances() == [3] and len(log) == 1
    assert_well_formed(log.slab)
    buffer = SlotBuffer(slot_count=2)
    buffer.put(5, "plain", 7)
    buffer.put(6, value(6), 106)
    assert sorted(buffer.instances()) == [5, 6] and buffer.bytes_used == 113
    assert buffer.trim(5) == 1 and buffer.bytes_used == 106
    assert_well_formed(buffer.slab)

"""Differential: the columnar acceptor against the four-dict reference model.

``AcceptorState``, its ``WriteAheadLog`` and its ``SlotBuffer`` store through
one :class:`~repro.storage.slab.InstanceSlab`: a steady-state hop appends to
the columns and sets flags, everything else (a hole, a repeat vote, a decision
for another value, a crash) takes the general path.
``tests/reference/acceptor.py`` is the same acceptor as one dict of objects
per kind of state.

Hypothesis drives both with one operation stream — promises below / at /
above the ballot, votes out of order (holes, filled later), repeat votes,
skips, ranges, decisions of the voted value, of another value and without a
vote, decisions past the slot bound, trims in the middle of a voted run,
votes at or below the trimmed point, crash + recovery in every storage mode —
and every result, every public accessor and the order of durability callbacks
must match.  Seeded mutants show the differential catches a broken slab.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paxos.acceptor import AcceptorState
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.actor import Environment
from repro.sim.disk import StorageMode
from repro.storage import slots as slots_module
from repro.storage.slab import InstanceSlab
from repro.storage.slots import SlotBuffer, SlotFullError
from repro.storage.wal import WriteAheadLog
from tests.conftest import mutate
from tests.reference.acceptor import ReferenceAcceptor
from tests.storage.test_slab import assert_well_formed

INSTANCES = 10
SLOTS = 3
MODES = list(StorageMode)


def value_of(instance: int, ballot: int, serial: int) -> ProposalValue:
    """A value no other operation of the stream produces (``serial``)."""
    payload = SKIP if instance % 4 == 3 else f"v{instance}@{ballot}"
    return ProposalValue(payload=payload, size_bytes=16 + instance, proposal_id=serial)


instances = st.integers(0, INSTANCES - 1)
ballots = st.integers(0, 4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("vote"), instances, ballots),
        st.tuples(st.just("range"), instances, ballots),     # a skip range of two
        st.tuples(st.just("batch"), instances, ballots),     # a value range of two
        st.tuples(st.just("promise"), instances, ballots),
        st.tuples(st.just("decide"), instances, ballots),    # the value voted for, if any
        st.tuples(st.just("decide-other"), instances, ballots),
        st.tuples(st.just("trim"), instances, st.just(0)),
        st.tuples(st.just("crash"), st.just(0), st.just(0)),
        st.tuples(st.just("recover"), st.just(0), st.just(0)),
        st.tuples(st.just("wait"), st.just(0), st.just(0)),  # lets an async flush happen
    ),
    max_size=40,
)


def observe(acceptor):
    """Everything the public accessors say about an acceptor."""
    span = range(INSTANCES + 2)
    log, slots = acceptor.log, acceptor.slots
    records = [log.get(i) for i in span]
    entries = [slots.get(i) for i in span]
    return (
        acceptor.accepted_in_range(0, INSTANCES + 1),
        acceptor.accepted_in_range(2, 5),
        [acceptor.promised_ballot(i) for i in span],
        [acceptor.accepted_value(i) for i in span],
        [r and (r.instance, r.ballot, r.value, r.size_bytes) for r in records],
        [i in log for i in span], log.instances(), log.highest_instance(), len(log),
        log.lost_on_crash,
        [e and (e.instance, e.value, e.size_bytes) for e in entries],
        [i in slots for i in span], sorted(slots.instances()), len(slots),
        slots.occupancy, slots.bytes_used,
        acceptor.decided_from(0), acceptor.decided_from(4), acceptor.decided_between(1, 6),
        [acceptor.is_decided(i) for i in span], acceptor.highest_decided,
        acceptor.trimmed_up_to,
    )


def run(acceptor_cls, ops, mode=StorageMode.IN_MEMORY, slot_count=SLOTS, check=None):
    """Drive one acceptor; returns every result and the state after every step."""
    env = Environment()
    acceptor = acceptor_cls(env, "a0", ring_id=0, storage_mode=mode, slot_count=slot_count)
    durable = []
    trace = []
    for serial, (op, instance, ballot) in enumerate(ops):
        done = dict(on_durable=durable.append, on_durable_args=((op, instance, ballot),))
        result = None
        if op == "vote":
            vote = acceptor.receive_phase2(
                instance, ballot, value_of(instance, ballot, serial), **done
            )
            result = (vote.accepted, vote.ballot)
        elif op == "range":
            skip = ProposalValue(payload=SKIP, size_bytes=0, proposal_id=serial)
            result = acceptor.receive_phase2_range(instance, instance + 1, ballot, skip, **done)
        elif op == "batch":
            value = ProposalValue(payload="pair", size_bytes=40, proposal_id=serial)
            result = acceptor.receive_phase2_range(instance, instance + 1, ballot, value, **done)
        elif op == "promise":
            result = acceptor.receive_phase1a(2, instance, ballot)
        elif op == "decide":
            voted = acceptor.accepted_value(instance)
            acceptor.record_decision(instance, voted or value_of(instance, ballot, serial))
        elif op == "decide-other":
            acceptor.record_decision(instance, value_of(instance, ballot, serial))
        elif op == "trim":
            result = acceptor.trim(instance)
        elif op == "crash":
            acceptor.crash()
        elif op == "recover":
            result = acceptor.recover_from_log()
        else:
            env.run(until=env.now + 0.004)
        trace.append((result, observe(acceptor)))
        if check is not None:
            check(acceptor._slab)
    env.run()
    return trace, durable, observe(acceptor)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
@given(ops=operations)
@settings(max_examples=300, deadline=None)
def test_votes_and_decisions_match_the_plain_rules(mode, ops):
    shipped = run(AcceptorState, ops, mode, check=assert_well_formed)
    assert shipped == run(ReferenceAcceptor, ops, mode)


CASES = {
    "hole filled later": [("vote", 6, 1), ("decide", 6, 1), ("vote", 2, 1), ("vote", 4, 1),
                          ("vote", 0, 1), ("vote", 1, 1), ("vote", 3, 1), ("vote", 5, 1)],
    "trim inside a voted run": [("vote", i, 1) for i in range(6)]
    + [("decide", i, 1) for i in range(6)] + [("trim", 2, 0), ("vote", 2, 2), ("vote", 6, 1),
                                             ("decide", 1, 0), ("trim", 1, 0), ("trim", 8, 0),
                                             ("vote", 9, 1)],
    "decide without a vote": [("decide", 4, 0), ("vote", 4, 1), ("decide", 4, 1)],
    "decide another value": [("vote", 1, 1), ("decide-other", 1, 0), ("vote", 1, 2),
                             ("decide", 1, 0)],
    "re-vote under a decision": [("vote", 0, 1), ("decide", 0, 0), ("vote", 0, 2), ("vote", 0, 3)],
    "skip over a logged vote": [("vote", 2, 1), ("range", 2, 2), ("crash", 0, 0),
                                ("recover", 0, 0)],
    "crash between flushes": [("vote", 0, 1), ("vote", 1, 1), ("wait", 0, 0), ("wait", 0, 0),
                              ("vote", 2, 1), ("decide", 2, 0), ("crash", 0, 0),
                              ("recover", 0, 0), ("vote", 2, 1), ("vote", 4, 0)],
    "refused first vote": [("promise", 9, 3), ("vote", 5, 2), ("promise", 4, 4), ("vote", 5, 3)],
}


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_match_the_model(name, mode):
    shipped = run(AcceptorState, CASES[name], mode, check=assert_well_formed)
    assert shipped == run(ReferenceAcceptor, CASES[name], mode)


@pytest.mark.parametrize("promised,ballot,accepted", [(3, 2, False), (3, 3, True), (3, 4, True)])
def test_fresh_instance_around_the_range_promise(promised, ballot, accepted):
    ops = [("promise", INSTANCES - 1, promised), ("vote", 2, ballot), ("vote", 2, ballot)]
    trace, durable, state = run(AcceptorState, ops)
    assert (trace, durable, state) == run(ReferenceAcceptor, ops)
    assert trace[1][0] == (accepted, ballot if accepted else promised)
    assert len(durable) == 2  # the callback fires for refused votes too


def test_steady_state_votes_share_one_result_per_ballot():
    acceptor = AcceptorState(Environment(), "a0", ring_id=0)
    first = acceptor.receive_phase2(0, 1, value_of(0, 1, 0))
    assert acceptor.receive_phase2(1, 1, value_of(1, 1, 1)) is first  # nothing allocated to say "yes"
    takeover = acceptor.receive_phase2(2, 5, value_of(2, 5, 2))
    assert (first.accepted, first.ballot) == (True, 1)
    assert (takeover.accepted, takeover.ballot) == (True, 5)


def test_a_steady_run_keeps_every_side_dict_empty():
    # The point of the slab: vote, log record, decision and slot entry of an
    # in-order run are four appends and three flag writes, no object each.
    acceptor = AcceptorState(Environment(), "a0", ring_id=0, storage_mode=StorageMode.ASYNC_SSD)
    for instance in range(50):
        value = value_of(instance, 1, instance)
        acceptor.receive_phase2(instance, 1, value)
        acceptor.record_decision(instance, acceptor.accepted_value(instance))
    slab = acceptor._slab
    assert not any(slab.sides.values())
    assert len(slab.flags) == len(slab.values) == len(slab.ballots) == 50
    assert acceptor.trim(19) == 20 + 20 + 15  # votes + decisions + records (skips are not logged)
    assert slab.base == acceptor.trimmed_up_to + 1 == 20 and len(slab.flags) == 30


def test_the_acceptor_its_log_and_its_slots_share_one_slab():
    acceptor = AcceptorState(Environment(), "a0", ring_id=0)
    assert acceptor.log.slab is acceptor.slots.slab is acceptor._slab
    assert isinstance(WriteAheadLog(Environment()).slab, InstanceSlab)  # alone: its own
    assert isinstance(SlotBuffer().slab, InstanceSlab)
    for gone in ("_instances", "_decided"):
        assert not hasattr(acceptor, gone)
    assert not hasattr(acceptor.log, "_records") and not hasattr(acceptor.slots, "_slots")


def test_a_run_past_the_slot_bound_raises_nothing(monkeypatch):
    raised = []

    class Counting(SlotFullError):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(slots_module, "SlotFullError", Counting)
    ops = [("decide", i, 0) for i in range(INSTANCES)]
    shipped = run(AcceptorState, ops)
    assert raised == []
    reference = run(ReferenceAcceptor, ops)
    non_skips = sum(1 for i in range(INSTANCES) if i % 4 != 3)
    assert len(raised) == non_skips - SLOTS  # the try/except version pays per decision
    assert shipped == reference
    assert len(shipped[2][12]) == SLOTS


def test_offer_reports_what_put_raises():
    buffer = SlotBuffer(slot_count=2)
    assert buffer.offer(0, "a", 1) and buffer.offer(1, "b", 1)
    assert not buffer.offer(2, "c", 1) and 2 not in buffer
    assert buffer.offer(1, "b2", 3) and buffer.get(1).value == "b2"  # present: overwrite
    assert (len(buffer), buffer.bytes_used) == (2, 4)
    with pytest.raises(SlotFullError):
        buffer.put(2, "c", 1)
    with pytest.raises(ValueError):
        buffer.offer(0, "huge", buffer.slot_size_bytes + 1)


# ------------------------------------------------------------------ mutants
STEADY = [("vote", i, 1) for i in range(8)] + [("decide", i, 0) for i in range(8)]


def test_mutant_vote_accepted_below_the_promise_is_caught():
    class AcceptsBelowPromise(AcceptorState):
        receive_phase2 = mutate(
            AcceptorState.receive_phase2, (" and ballot >= self._range_promised", "")
        )

    ops = [("promise", INSTANCES - 1, 3), ("vote", 0, 2)]
    assert run(AcceptorState, ops) == run(ReferenceAcceptor, ops)
    assert run(AcceptsBelowPromise, ops) != run(ReferenceAcceptor, ops)


def test_mutant_slot_overwritten_when_full_is_caught(monkeypatch):
    reference = run(ReferenceAcceptor, STEADY)
    assert run(AcceptorState, STEADY) == reference
    monkeypatch.setattr(SlotBuffer, "offer", mutate(
        SlotBuffer.offer, ("slab.slots_used >= self.slot_count and (", "False and (")
    ))
    assert run(AcceptorState, STEADY) != reference


def test_mutant_in_slot_flag_set_past_the_slot_count_is_caught(monkeypatch):
    reference = run(ReferenceAcceptor, STEADY)
    monkeypatch.setattr(SlotBuffer, "offer", mutate(
        SlotBuffer.offer, ("slab.slots_used >= self.slot_count", "slab.slots_used > self.slot_count")
    ))
    assert run(AcceptorState, STEADY) != reference


def test_mutant_trim_that_does_not_move_base_is_caught(monkeypatch):
    ops = STEADY + [("trim", 3, 0), ("vote", 8, 1)]
    reference = run(ReferenceAcceptor, ops)
    assert run(AcceptorState, ops) == reference
    monkeypatch.setattr(InstanceSlab, "_release", mutate(
        InstanceSlab._release, ("    self.base += size\n", "")
    ))
    assert run(AcceptorState, ops) != reference


def test_mutant_decided_hole_without_a_value_is_caught(monkeypatch):
    ops = [("vote", 0, 1), ("decide", 3, 0), ("decide", 1, 0)]  # 1 and 3 were never voted
    reference = run(ReferenceAcceptor, ops)
    assert run(AcceptorState, ops) == reference
    monkeypatch.setattr(InstanceSlab, "attach", mutate(
        InstanceSlab.attach, ("    if shared:\n", "    if shared or flag == DECIDED:\n")
    ))
    assert run(AcceptorState, ops) != reference


def test_mutant_async_crash_keeping_the_flush_pending_records_is_caught(monkeypatch):
    ops = CASES["crash between flushes"]
    reference = run(ReferenceAcceptor, ops, StorageMode.ASYNC_HDD)
    assert run(AcceptorState, ops, StorageMode.ASYNC_HDD) == reference
    monkeypatch.setattr(WriteAheadLog, "crash", mutate(
        WriteAheadLog.crash, ("slab.detach(instance, LOGGED)", "pass")
    ))
    assert run(AcceptorState, ops, StorageMode.ASYNC_HDD) != reference

"""Differential: the columnar acceptor against the four-dict reference model.

``AcceptorState`` and its ``WriteAheadLog`` store through one :class:`~repro.storage.slab.InstanceSlab`: a steady-state hop appends to
the columns and sets flags, everything else (a hole, a repeat vote, a decision
for another value, a crash) takes the general path.
``tests/reference/acceptor.py`` is the same acceptor as one dict of objects
per kind of state.

Hypothesis drives both with one operation stream — promises below / at /
above the ballot, votes out of order (holes, filled later), repeat votes,
skips, ranges, decisions of the voted value, of another value and without a
vote, trims in the middle of a voted run,
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
from repro.storage.slab import InstanceSlab
from repro.storage.wal import WriteAheadLog
from tests.conftest import mutate
from tests.reference.acceptor import ReferenceAcceptor
from tests.storage.test_slab import assert_well_formed

INSTANCES = 10
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
    log = acceptor.log
    records = [log.get(i) for i in span]
    return (
        acceptor.accepted_in_range(0, INSTANCES + 1),
        acceptor.accepted_in_range(2, 5),
        [acceptor.promised_ballot(i) for i in span],
        [acceptor.accepted_value(i) for i in span],
        [r and (r.instance, r.ballot, r.value, r.size_bytes) for r in records],
        [i in log for i in span], log.instances(), log.highest_instance(), len(log),
        acceptor.decided_from(0), acceptor.decided_from(4), acceptor.decided_between(1, 6),
        [acceptor.is_decided(i) for i in span], acceptor.highest_decided,
        acceptor.trimmed_up_to,
    )


def run(acceptor_cls, ops, mode=StorageMode.IN_MEMORY, check=None):
    """Drive one acceptor; returns every result and the state after every step."""
    env = Environment()
    acceptor = acceptor_cls(env, "a0", ring_id=0, storage_mode=mode)
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
    # The point of the slab: vote, log record and decision of an in-order
    # run are three appends and two flag writes, no object each.
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


def test_the_acceptor_and_its_log_share_one_slab():
    acceptor = AcceptorState(Environment(), "a0", ring_id=0)
    assert acceptor.log.slab is acceptor._slab
    assert isinstance(WriteAheadLog(Environment()).slab, InstanceSlab)  # alone: its own
    for gone in ("_instances", "_decided", "slots"):
        assert not hasattr(acceptor, gone)
    assert not hasattr(acceptor.log, "_records")


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

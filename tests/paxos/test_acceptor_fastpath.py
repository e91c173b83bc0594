"""Differentials: the acceptor's per-hop shortcuts against the plain rules.

Two shortcuts on ``AcceptorState`` sit on every ring hop:

* a Phase 2 vote on a *fresh* instance with a ballot the range promise admits
  stores the voted ``AcceptorInstance`` directly and returns a shared
  ``Accepted`` — the reference creates the instance at the range promise and
  runs ``AcceptorInstance.receive_phase2a`` on it, as the code did before;
* ``record_decision`` asks the slot buffer (``SlotBuffer.offer``) instead of
  catching ``SlotFullError`` — the reference is the try/except version.

Hypothesis drives a shipped and a reference acceptor with one operation
stream (promises below / at / above the ballot, repeat votes, skips, ranges,
trims, decisions past the slot bound) and every result, the Phase 1B report,
the log records, the slot contents and the order of durability callbacks must
match.  One mutant per shortcut shows the differential catches a broken one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.paxos.acceptor import AcceptorState
from repro.paxos.instance import Accepted
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.actor import Environment
from repro.storage import slots as slots_module
from repro.storage.slots import SlotBuffer, SlotFullError
from tests.conftest import mutate

INSTANCES = 8
SLOTS = 3


class ReferenceAcceptor(AcceptorState):
    """Votes through the plain instance rules; stores decisions by try/except."""

    def receive_phase2(self, instance, ballot, value, on_durable=None, on_durable_args=()):
        if instance <= self._trimmed_up_to:
            return Accepted(accepted=False, ballot=ballot)
        result = self._instance(instance).receive_phase2a(ballot, value)
        if result.accepted and value.payload is not SKIP:
            self.log.append(instance, ballot, value, value.size_bytes, on_durable, on_durable_args)
        elif on_durable is not None:
            self.env.simulator._post(0.0, on_durable, on_durable_args)
        return result

    def record_decision(self, instance, value):
        if instance <= self._trimmed_up_to:
            return
        self._decided[instance] = value
        if value.payload is not SKIP:
            try:
                self.slots.put(instance, value, value.size_bytes)
            except SlotFullError:
                pass


def value_of(instance: int, ballot: int = 0) -> ProposalValue:
    payload = SKIP if instance % 4 == 3 else f"v{instance}@{ballot}"
    return ProposalValue(payload=payload, size_bytes=16 + instance, proposal_id=instance)


instances = st.integers(0, INSTANCES - 1)
ballots = st.integers(0, 4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("vote"), instances, ballots),
        st.tuples(st.just("range"), instances, ballots),  # a skip range of two
        st.tuples(st.just("promise"), instances, ballots),
        st.tuples(st.just("decide"), instances, ballots),
        st.tuples(st.just("trim"), instances, st.just(0)),
    ),
    max_size=40,
)


def run(acceptor_cls, ops, slot_count=SLOTS):
    """Drive one acceptor; returns every result and the final state."""
    env = Environment()
    acceptor = acceptor_cls(env, "a0", ring_id=0, slot_count=slot_count)
    durable = []
    results = []
    for op, instance, ballot in ops:
        if op == "vote":
            vote = acceptor.receive_phase2(
                instance, ballot, value_of(instance, ballot),
                on_durable=durable.append, on_durable_args=((op, instance, ballot),),
            )
            results.append((vote.accepted, vote.ballot))
        elif op == "range":
            skip = ProposalValue(payload=SKIP, size_bytes=0)
            results.append(acceptor.receive_phase2_range(
                instance, instance + 1, ballot, skip,
                on_durable=durable.append, on_durable_args=((op, instance, ballot),),
            ))
        elif op == "promise":
            results.append(acceptor.receive_phase1a(0, instance, ballot))
        elif op == "decide":
            results.append(acceptor.record_decision(instance, value_of(instance, ballot)))
        else:
            results.append(acceptor.trim(instance))
    env.run()
    span = range(INSTANCES + 1)
    records = [acceptor.log.get(i) for i in span]
    state = (
        acceptor.accepted_in_range(0, INSTANCES),
        [acceptor.promised_ballot(i) for i in span],
        [acceptor.accepted_value(i) for i in span],
        [r and (r.instance, r.ballot, r.value, r.size_bytes) for r in records],
        [(e.instance, e.value, e.size_bytes) for e in map(acceptor.slots.get, acceptor.slots.instances())],
        acceptor.decided_from(0),
        acceptor.trimmed_up_to,
    )
    return results, durable, state


@given(ops=operations)
@settings(max_examples=400, deadline=None)
def test_votes_and_decisions_match_the_plain_rules(ops):
    assert run(AcceptorState, ops) == run(ReferenceAcceptor, ops)


@pytest.mark.parametrize("promised,ballot,accepted", [(3, 2, False), (3, 3, True), (3, 4, True)])
def test_fresh_instance_around_the_range_promise(promised, ballot, accepted):
    ops = [("promise", INSTANCES - 1, promised), ("vote", 2, ballot), ("vote", 2, ballot)]
    results, durable, state = run(AcceptorState, ops)
    assert (results, durable, state) == run(ReferenceAcceptor, ops)
    assert results[1] == (accepted, ballot if accepted else promised)
    assert len(durable) == 2  # the callback fires for refused votes too


def test_steady_state_votes_share_one_result_per_ballot():
    acceptor = AcceptorState(Environment(), "a0", ring_id=0)
    first = acceptor.receive_phase2(0, 1, value_of(0))
    assert acceptor.receive_phase2(1, 1, value_of(1)) is first  # nothing allocated to say "yes"
    takeover = acceptor.receive_phase2(2, 5, value_of(2))
    assert (first.accepted, first.ballot) == (True, 1)
    assert (takeover.accepted, takeover.ballot) == (True, 5)


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
    assert len(shipped[2][4]) == SLOTS


def test_offer_reports_what_put_raises():
    buffer = SlotBuffer(slot_count=2)
    assert buffer.offer(0, "a", 1) and buffer.offer(1, "b", 1)
    assert not buffer.offer(2, "c", 1) and 2 not in buffer
    assert buffer.offer(1, "b2", 1) and buffer.get(1).value == "b2"  # present: overwrite
    with pytest.raises(SlotFullError):
        buffer.put(2, "c", 1)
    with pytest.raises(ValueError):
        buffer.offer(0, "huge", buffer.slot_size_bytes + 1)


def test_mutant_vote_accepted_below_the_promise_is_caught():
    class AcceptsBelowPromise(AcceptorState):
        receive_phase2 = mutate(
            AcceptorState.receive_phase2, (" and ballot >= self._range_promised", "")
        )

    ops = [("promise", INSTANCES - 1, 3), ("vote", 2, 2)]
    assert run(AcceptorState, ops) == run(ReferenceAcceptor, ops)
    assert run(AcceptsBelowPromise, ops) != run(ReferenceAcceptor, ops)


def test_mutant_slot_overwritten_when_full_is_caught(monkeypatch):
    ops = [("decide", i, 0) for i in range(INSTANCES)]
    reference = run(ReferenceAcceptor, ops)
    assert run(AcceptorState, ops) == reference
    monkeypatch.setattr(
        SlotBuffer, "offer", mutate(SlotBuffer.offer, (" and instance not in slots", " and False"))
    )
    assert run(AcceptorState, ops) != reference

"""Differential: the learner's in-order path against the code it shortcuts.

``RingLearner.observe_decision`` decides and emits in its own frame when the
decision is the one awaited next and nothing is queued behind it; everything
else takes ``InstanceLedger.decide`` + ``_drain`` as before.  The reference
below is a test-local copy of that older code (``observe_value`` /
``observe_decision`` exactly as they were before the shortcut, on top of the
shared ``_drain``).  Hypothesis drives both with the same operation stream —
permuted decisions, value-less decisions completed later, duplicates,
``fast_forward``, and callbacks that re-enter the learner — under both
drains, and every emission, the state each callback observes, and the final
state must match.

The last test seeds a bug into the shipped method (emit before decide) and
checks the differential sees it.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos.learner import RingLearner
from tests.conftest import mutate

INSTANCES = 10


class ReferenceLearner(RingLearner):
    """The learner before the in-order path: always decide, then drain."""

    def observe_value(self, instance, value):
        self._pending_values[instance] = value
        self._ledger.observe_instance(instance)

    def observe_decision(self, instance, value):
        resolved = value if value is not None else self._pending_values.get(instance)
        if resolved is None:
            self._ledger.observe_instance(instance)
            self._undeliv.add(instance)
            return
        if self._ledger.decide(instance, resolved):
            self._drain()


def value_of(instance: int) -> ProposalValue:
    payload = SKIP if instance % 4 == 3 else f"v{instance}"
    return ProposalValue(payload=payload, size_bytes=8, proposal_id=instance)


#: ``(operation, instance)``; "bare" is a decision that carries no value.
operations = st.lists(
    st.tuples(
        st.sampled_from(["decide", "bare", "value", "supply", "inject", "forward"]),
        st.integers(0, INSTANCES - 1),
    ),
    max_size=40,
)
#: emitted instance -> what its callback does to the learner, once.
reentries = st.dictionaries(
    st.integers(0, INSTANCES - 1),
    st.tuples(st.sampled_from(["inject", "decide", "forward"]), st.integers(0, INSTANCES - 1)),
    max_size=3,
)


def run(learner_cls, ops, reentry, batch_drain):
    """Drive one learner; returns the callback log and the final state."""
    log = []
    pending = dict(reentry)

    def on_ordered(ring_id, instance, value):
        ledger = learner._ledger
        log.append((
            instance, value.proposal_id, learner.next_to_emit, learner.emitted_count,
            learner.skipped_count, ledger.is_decided(instance),
            ledger.highest_contiguous_decided, ledger.next_instance,
        ))
        action = pending.pop(instance, None)
        if action is not None:
            apply(*action)

    def apply(op, instance):
        if op == "decide":
            learner.observe_decision(instance, value_of(instance))
        elif op == "bare":
            learner.observe_decision(instance, None)
        elif op == "value":
            learner.observe_value(instance, value_of(instance))
        elif op == "supply":
            learner.supply_missing_value(instance, value_of(instance))
        elif op == "inject":
            learner.inject_decided(instance, value_of(instance))
        else:
            learner.fast_forward(instance)

    learner = learner_cls(7, on_ordered, batch_drain=batch_drain)
    for op in ops:
        apply(*op)
    ledger = learner._ledger
    state = (
        learner.next_to_emit, learner.emitted_count, learner.skipped_count,
        learner.highest_decided, learner.gaps(), sorted(learner._pending_values),
        sorted(learner._undeliv), sorted(ledger.decided_map), ledger.next_instance,
        ledger.highest_contiguous_decided,
    )
    return log, state


@pytest.mark.parametrize("batch_drain", [False, True])
@given(ops=operations, reentry=reentries)
# Why the path also requires nothing queued behind the instance: the batch
# drain snapshots the whole run [0, 1] before the first callback, so a callback
# that fast-forwards past 1 does not stop 1 from being emitted.
@example(ops=[("decide", 1), ("decide", 0)], reentry={0: ("forward", 1)})
@settings(max_examples=300, deadline=None)
def test_in_order_path_matches_decide_then_drain(batch_drain, ops, reentry):
    assert run(RingLearner, ops, reentry, batch_drain) == run(
        ReferenceLearner, ops, reentry, batch_drain
    )


@pytest.mark.parametrize("batch_drain", [False, True])
@given(order=st.permutations(list(range(INSTANCES))), bare=st.sets(st.integers(0, INSTANCES - 1)))
@settings(max_examples=100, deadline=None)
def test_permuted_decisions_with_late_values_emit_every_instance_once(batch_drain, order, bare):
    ops = [("bare" if i in bare else "decide", i) for i in order] + [("supply", i) for i in bare]
    log, state = run(RingLearner, ops, {}, batch_drain)
    assert [entry[0] for entry in log] == list(range(INSTANCES))
    assert (log, state) == run(ReferenceLearner, ops, {}, batch_drain)


def test_in_order_stream_never_enters_the_drain(monkeypatch):
    # The point of the path: a ring's steady state is one frame per decision.
    drains = []
    monkeypatch.setattr(RingLearner, "_drain", lambda self: drains.append(self.next_to_emit))
    emitted = []
    learner = RingLearner(0, lambda ring, instance, v: emitted.append(instance))
    for instance in range(50):
        learner.observe_value(instance, value_of(instance))
        learner.observe_decision(instance, None)
    assert emitted == list(range(50)) and drains == []


def test_mutant_emit_before_decide_is_caught():
    # Seeded bug: the in-order path records the decision only after the
    # callback ran.  The callback's view of the ledger gives it away.
    mutated = mutate(
        RingLearner.observe_decision,
        ("    decided[instance] = resolved\n", ""),
        ("    self._pending_values.pop(instance, None)\n",
         "    decided[instance] = resolved\n    self._pending_values.pop(instance, None)\n"),
    )

    class EmitBeforeDecide(RingLearner):
        observe_decision = mutated

    ops = [("decide", 0), ("decide", 1)]
    assert run(RingLearner, ops, {}, False) == run(ReferenceLearner, ops, {}, False)
    assert run(EmitBeforeDecide, ops, {}, False) != run(ReferenceLearner, ops, {}, False)

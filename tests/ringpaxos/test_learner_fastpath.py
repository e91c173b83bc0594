"""Differential: the learner that keeps only what it has not emitted, against
the plain-rules model that remembers everything.

``RingLearner`` emits the decision awaited next without ever storing it, and
drops a waiting decision from ``decided_map`` the moment its turn comes:
``instance <= highest_contiguous_decided`` *is* "decided and delivered".
``tests/reference/learner.py`` decides, then emits the contiguous prefix, and
never forgets.  Hypothesis drives both with the same operation stream —
permuted decisions, value-less decisions completed later, duplicates (of
waiting, emitted and fast-forwarded instances), ``fast_forward``, and
callbacks that re-enter the learner — and every emission,
the state each callback observes, the state after every step (with how many
instances and skips the emission log holds by then) and the size of
``decided_map`` must match.

The mutants seed a bug into the shipped methods (emit before decide; a
duplicate of an emitted instance emitted again) and check the differential
sees it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos.learner import RingLearner
from tests.conftest import mutate
from tests.reference.learner import ReferenceLearner

INSTANCES = 10


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


def waiting(learner):
    """Decisions held for later: the shipped map, the model's ``waiting``."""
    return learner.decided_map if isinstance(learner, RingLearner) else learner.waiting


def observe(learner):
    held = waiting(learner)
    return (
        # The point of dropping: nothing emitted (or being emitted) is still held.
        all(instance >= learner.next_to_emit for instance in held),
        learner.next_to_emit, learner.highest_decided, learner.highest_contiguous_decided, learner.next_instance,
        learner.gaps(), [learner.is_decided(i) for i in range(INSTANCES + 1)], sorted(held),
    )


def run(learner_cls, ops, reentry):
    """Drive one learner; returns the callback log and the state after every step."""
    log = []
    pending = dict(reentry)

    def on_ordered(ring_id, instance, value):
        log.append((instance, value.proposal_id, value.payload is SKIP, observe(learner)))
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

    learner = learner_cls(7, on_ordered)
    steps = []
    for op in ops:
        apply(*op)
        emitted, skipped = len(log), sum(entry[2] for entry in log)
        steps.append((emitted, skipped, *observe(learner)))
    return log, steps


@given(ops=operations, reentry=reentries)
# A callback that fast-forwards past a decision already waiting: the learner
# resumes after the fast-forward.
@example(ops=[("decide", 1), ("decide", 0)], reentry={0: ("forward", 1)})
@example(ops=[("decide", 2), ("decide", 1), ("decide", 0)], reentry={0: ("forward", 1)})
# A callback that decides its own instance again, and one that decides the next.
@example(ops=[("decide", 0)], reentry={0: ("decide", 0)})
@example(ops=[("decide", 0), ("decide", 1)], reentry={0: ("inject", 1)})
@settings(max_examples=500, deadline=None)
def test_in_order_path_matches_decide_then_drain(ops, reentry):
    assert run(RingLearner, ops, reentry) == run(ReferenceLearner, ops, reentry)


@given(order=st.permutations(list(range(INSTANCES))), bare=st.sets(st.integers(0, INSTANCES - 1)))
@settings(max_examples=200, deadline=None)
def test_permuted_decisions_with_late_values_emit_every_instance_once(order, bare):
    ops = [("bare" if i in bare else "decide", i) for i in order] + [("supply", i) for i in bare]
    log, steps = run(RingLearner, ops, {})
    assert [entry[0] for entry in log] == list(range(INSTANCES))
    assert (log, steps) == run(ReferenceLearner, ops, {})
    assert steps[-1][-1] == []  # everything emitted, nothing kept


@given(order=st.permutations(list(range(INSTANCES))))
@settings(max_examples=200, deadline=None)
def test_decided_map_never_exceeds_the_out_of_order_window(order):
    learner = RingLearner(0, lambda ring, instance, value: None)
    seen = set()
    for instance in order:
        learner.observe_decision(instance, value_of(instance))
        seen.add(instance)
        out_of_order = {i for i in seen if i >= learner.next_to_emit}
        assert set(learner.decided_map) == out_of_order


def test_in_order_stream_never_enters_the_drain_and_stores_nothing(monkeypatch):
    # The point of the path: a ring's steady state is one frame per decision
    # and no entry per instance.
    drains = []
    monkeypatch.setattr(RingLearner, "_drain", lambda self: drains.append(self.next_to_emit))
    emitted = []
    held = []
    learner = RingLearner(0, lambda ring, instance, v: (emitted.append(instance),
                                                       held.append(len(learner.decided_map))))
    for instance in range(50):
        learner.observe_value(instance, value_of(instance))
        learner.observe_decision(instance, None)
    assert emitted == list(range(50)) and drains == []
    assert held == [0] * 50 and not learner.decided_map and not learner._pending_values
    assert learner.is_decided(49) and not learner.is_decided(50)


def test_mutant_emit_before_decide_is_caught():
    # Seeded bug: the in-order path marks the instance decided only after the
    # callback ran.  The callback's view of the learner gives it away.
    mutated = mutate(
        RingLearner.observe_decision,
        ("    self.highest_contiguous_decided = instance\n", ""),
        ("    self._pending_values.pop(instance, None)\n",
         "    self.highest_contiguous_decided = instance\n"
         "    self._pending_values.pop(instance, None)\n"),
    )

    class EmitBeforeDecide(RingLearner):
        observe_decision = mutated

    ops = [("decide", 0), ("decide", 1)]
    assert run(RingLearner, ops, {}) == run(ReferenceLearner, ops, {})
    assert run(EmitBeforeDecide, ops, {}) != run(ReferenceLearner, ops, {})


def test_mutant_duplicate_of_an_emitted_instance_emitted_twice_is_caught():
    # Seeded bug: only waiting decisions count as duplicates.  An emitted
    # instance is no longer stored, so a repeat of it is taken for a new
    # decision: delivered again when it is the one awaited (a callback deciding
    # its own instance), kept for ever otherwise.
    class ForgetsWhatItEmitted(RingLearner):
        observe_decision = mutate(
            RingLearner.observe_decision,
            ("instance <= self.highest_contiguous_decided or instance in decided",
             "instance in decided"),
        )

    ops = [("decide", 0), ("decide", 1), ("decide", 1), ("decide", 0)]
    assert run(RingLearner, ops, {}) == run(ReferenceLearner, ops, {})
    assert run(ForgetsWhatItEmitted, ops, {}) != run(ReferenceLearner, ops, {})
    again = {0: ("decide", 0)}
    emitted = [entry[0] for entry in run(ForgetsWhatItEmitted, ops[:1], again)[0]]
    assert emitted == [0, 0]
    assert [entry[0] for entry in run(RingLearner, ops[:1], again)[0]] == [0]


def _feed_learner(learner_cls, seed: int):
    """Feed a shuffled decision sequence; return the emission order."""
    rng = random.Random(seed)
    emitted = []
    learner = learner_cls(0, lambda ring, inst, value: emitted.append((inst, value.payload)))
    instances = list(range(60))
    rng.shuffle(instances)
    for inst in instances:
        payload = SKIP if rng.random() < 0.2 else f"v{inst}"
        learner.observe_decision(
            inst, ProposalValue(payload=payload, size_bytes=64, proposer="p0",
                                proposal_id=inst),
        )
    return emitted, learner


class TestLearnerBatchDrain:
    # The learner had two drains (per instance / per contiguous run) behind a
    # flag; it has one now, held to the plain-rules model.
    @pytest.mark.parametrize("seed", [0, 5, 21])
    def test_emission_order_identical_to_default_drain(self, seed):
        plain, plain_learner = _feed_learner(ReferenceLearner, seed)
        shipped, shipped_learner = _feed_learner(RingLearner, seed)
        assert plain == shipped
        assert len(plain) == 60 and any(payload is SKIP for _, payload in plain)
        assert plain_learner.next_to_emit == shipped_learner.next_to_emit

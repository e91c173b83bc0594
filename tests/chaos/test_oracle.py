"""Unit tests of the invariant oracle on hand-built traces."""

from repro.chaos.oracle import check_delivery_properties
from repro.chaos.scenario import _trace_tails
from repro.chaos.trace import DeliveryRecord, ProcessTrace, TraceRecorder


def make_recorder(subscriptions):
    """A recorder with empty traces for the given {name: groups} map."""
    recorder = TraceRecorder()
    for name, groups in subscriptions.items():
        recorder.traces[name] = ProcessTrace(name, set(groups))
    return recorder


def deliver(recorder, name, payload, group=0, instance=0, time=0.0, incarnation=0):
    recorder.traces[name].records.append(
        DeliveryRecord(time=time, incarnation=incarnation, group=group,
                       instance=instance, payload=payload)
    )


class TestCleanTraces:
    def test_identical_streams_pass(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        for i, payload in enumerate(["m0", "m1", "m2"]):
            recorder.record_sent(payload, "a", 0, 0.0)
            deliver(recorder, "a", payload, instance=i)
            deliver(recorder, "b", payload, instance=i)
        assert check_delivery_properties(recorder) == []

    def test_disjoint_subscriptions_pass(self):
        recorder = make_recorder({"a": {0}, "b": {1}})
        recorder.record_sent("x", "a", 0, 0.0)
        recorder.record_sent("y", "b", 1, 0.0)
        deliver(recorder, "a", "x", group=0)
        deliver(recorder, "b", "y", group=1)
        assert check_delivery_properties(recorder) == []


class TestIntegrity:
    def test_duplicate_delivery_caught(self):
        recorder = make_recorder({"a": {0}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "a", "m", instance=0)
        deliver(recorder, "a", "m", instance=1)
        props = {v.prop for v in check_delivery_properties(recorder)}
        assert "integrity" in props

    def test_redelivery_after_restart_is_legitimate(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "b", "m")
        deliver(recorder, "a", "m", incarnation=0)
        deliver(recorder, "a", "m", incarnation=1)  # replay after recovery
        recorder.crashed_ever.add("a")
        assert check_delivery_properties(recorder) == []

    def test_spurious_delivery_caught(self):
        recorder = make_recorder({"a": {0}})
        deliver(recorder, "a", "ghost")
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any("never multicast" in v.detail for v in violations)

    def test_wrong_group_delivery_caught(self):
        recorder = make_recorder({"a": {0, 1}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "a", "m", group=1)
        violations = check_delivery_properties(recorder)
        assert any(v.prop == "integrity" and "group" in v.detail for v in violations)

    def test_unsubscribed_delivery_caught(self):
        recorder = make_recorder({"a": {0}})
        recorder.record_sent("m", "a", 1, 0.0)
        deliver(recorder, "a", "m", group=1)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any("does not subscribe" in v.detail for v in violations)


class TestAgreementAndValidity:
    def test_missing_delivery_at_correct_subscriber_caught(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "a", "m")
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "agreement" and "b" in v.detail for v in violations)

    def test_crashed_subscriber_owes_no_agreement(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "a", "m")
        recorder.crashed_ever.add("b")
        assert check_delivery_properties(recorder, check_validity=False) == []

    def test_crashed_deliverer_still_obligates_correct_learners(self):
        # uniform agreement: a delivery by a learner that later crashed still
        # requires every correct subscriber to deliver
        recorder = make_recorder({"a": {0}, "b": {0}})
        recorder.record_sent("m", "a", 0, 0.0)
        deliver(recorder, "a", "m")
        recorder.crashed_ever.add("a")
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "agreement" for v in violations)

    def test_undelivered_message_violates_validity(self):
        recorder = make_recorder({"a": {0}})
        recorder.record_sent("lost", "a", 0, 0.0)
        violations = check_delivery_properties(recorder, check_validity=True)
        assert any(v.prop == "validity" for v in violations)
        assert check_delivery_properties(recorder, check_validity=False) == []


class TestAcyclicOrder:
    def test_pairwise_disagreement_is_a_cycle(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        for payload in ("x", "y"):
            recorder.record_sent(payload, "a", 0, 0.0)
        deliver(recorder, "a", "x", instance=0)
        deliver(recorder, "a", "y", instance=1)
        deliver(recorder, "b", "y", instance=0)
        deliver(recorder, "b", "x", instance=1)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "acyclic-order" for v in violations)

    def test_three_way_cycle_caught(self):
        # no pair shares two messages, yet the union order is cyclic —
        # exactly the case a pairwise check misses
        recorder = make_recorder({"a": {0, 1}, "b": {1, 2}, "c": {0, 2}})
        for payload, group in (("x", 0), ("y", 1), ("z", 2)):
            recorder.record_sent(payload, "a", group, 0.0)
        deliver(recorder, "a", "x", group=0)
        deliver(recorder, "a", "y", group=1)
        deliver(recorder, "b", "y", group=1)
        deliver(recorder, "b", "z", group=2)
        deliver(recorder, "c", "z", group=2)
        deliver(recorder, "c", "x", group=0)
        violations = check_delivery_properties(recorder, check_validity=False)
        assert any(v.prop == "acyclic-order" for v in violations)

    def test_consistent_interleavings_pass(self):
        recorder = make_recorder({"a": {0, 1}, "b": {0}, "c": {1}})
        for payload, group in (("x", 0), ("y", 1), ("z", 0)):
            recorder.record_sent(payload, "a", group, 0.0)
        deliver(recorder, "a", "x", group=0)
        deliver(recorder, "a", "y", group=1)
        deliver(recorder, "a", "z", group=0)
        deliver(recorder, "b", "x", group=0)
        deliver(recorder, "b", "z", group=0)
        deliver(recorder, "c", "y", group=1)
        assert check_delivery_properties(recorder) == []


class TestArtifactTails:
    """A repro artifact keeps every delivery of the payloads a violation names."""

    def test_an_early_delivery_named_by_a_violation_survives_the_tail_cut(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        for i in range(80):
            payload = f"m{i}"
            recorder.record_sent(payload, "a", 0, 0.0)
            deliver(recorder, "a", payload, instance=i)
            if i != 3:
                deliver(recorder, "b", payload, instance=i)
        violations = check_delivery_properties(recorder)
        assert [(v.prop, v.payloads) for v in violations] == [("agreement", ("m3",))]
        tails = _trace_tails(recorder, violations)
        assert [entry["instance"] for entry in tails["a"]] == [3] + list(range(30, 80))
        assert len(tails["b"]) == 50  # b never delivered m3: its tail alone
        assert _trace_tails(recorder, [])["a"] == tails["a"][1:]

    def test_a_cycle_names_its_payloads(self):
        recorder = make_recorder({"a": {0}, "b": {0}})
        for payload in ("x", "y"):
            recorder.record_sent(payload, "a", 0, 0.0)
        deliver(recorder, "a", "x")
        deliver(recorder, "a", "y")
        deliver(recorder, "b", "y")
        deliver(recorder, "b", "x")
        (violation,) = check_delivery_properties(recorder)
        assert violation.prop == "acyclic-order"
        assert violation.payloads == ("x", "y")  # the ones the detail names, in its order

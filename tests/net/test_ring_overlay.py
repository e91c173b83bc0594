"""Tests of the ring overlay (membership, successors, quorums)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.ring import RingMember, RingOverlay


def make_ring(n=3, coordinator=None):
    members = [RingMember(name=f"p{i}", proposer=True, acceptor=True, learner=True) for i in range(n)]
    return RingOverlay(0, members, coordinator=coordinator)


class TestConstruction:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            RingOverlay(0, [])

    def test_requires_an_acceptor(self):
        members = [RingMember(name="p0", learner=True)]
        with pytest.raises(ValueError):
            RingOverlay(0, members)

    def test_member_needs_a_role(self):
        with pytest.raises(ValueError):
            RingMember(name="p0")

    def test_duplicate_names_rejected(self):
        members = [RingMember(name="p0", acceptor=True), RingMember(name="p0", acceptor=True)]
        with pytest.raises(ValueError):
            RingOverlay(0, members)

    def test_default_coordinator_is_first_acceptor(self):
        members = [
            RingMember(name="l0", learner=True, acceptor=False, proposer=False),
            RingMember(name="a0", acceptor=True),
            RingMember(name="a1", acceptor=True),
        ]
        overlay = RingOverlay(1, members)
        assert overlay.coordinator == "a0"

    def test_coordinator_must_be_acceptor(self):
        members = [
            RingMember(name="l0", learner=True),
            RingMember(name="a0", acceptor=True),
        ]
        with pytest.raises(ValueError):
            RingOverlay(0, members, coordinator="l0")

    def test_role_lists(self):
        members = [
            RingMember(name="p", proposer=True),
            RingMember(name="a", acceptor=True),
            RingMember(name="l", learner=True),
        ]
        overlay = RingOverlay(0, members)
        assert overlay.acceptors == ["a"]
        assert overlay.learners == ["l"]
        assert len(overlay.members) == 3


class TestTopology:
    def test_successor_wraps_around(self):
        overlay = make_ring(3)
        assert overlay.successor("p0") == "p1"
        assert overlay.successor("p2") == "p0"

    def test_walk_from_visits_everyone_once(self):
        overlay = make_ring(4)
        walk = overlay.walk_from("p1")
        assert walk == ["p2", "p3", "p0", "p1"]

    def test_contains(self):
        overlay = make_ring(2)
        assert "p0" in overlay
        assert "zz" not in overlay


class TestQuorums:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_majority_is_the_rule_spelled_both_ways(self, n):
        assert make_ring(n).majority() == n // 2 + 1 == math.ceil((n + 1) / 2)

    def test_last_acceptor_excludes_coordinator_when_possible(self):
        overlay = make_ring(3, coordinator="p0")
        assert overlay.last_acceptor_for() == "p2"

    def test_last_acceptor_with_learners_at_the_end(self):
        members = [
            RingMember(name="a0", acceptor=True),
            RingMember(name="a1", acceptor=True),
            RingMember(name="l0", learner=True),
        ]
        overlay = RingOverlay(0, members, coordinator="a0")
        assert overlay.last_acceptor_for() == "a1"

    def test_single_acceptor_is_its_own_last_acceptor(self):
        members = [RingMember(name="a0", acceptor=True), RingMember(name="l0", learner=True)]
        overlay = RingOverlay(0, members)
        assert overlay.last_acceptor_for() == "a0"


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_walk_covers_every_member_exactly_once(n):
    overlay = make_ring(n)
    names = [m.name for m in overlay.members]
    for start in names:
        walk = overlay.walk_from(start)
        assert sorted(walk) == sorted(names)
        assert walk[-1] == start

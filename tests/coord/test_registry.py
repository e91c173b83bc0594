"""Tests of the coordination service (Zookeeper substitute): the ring registry."""

import pytest

from repro.coord.registry import CoordinationService
from repro.net.ring import RingMember, RingOverlay


def overlay(ring_id=0, names=("a", "b", "c"), coordinator=None, epoch=0):
    members = [RingMember(name=n, proposer=True, acceptor=True, learner=True) for n in names]
    return RingOverlay(ring_id, members, coordinator=coordinator, epoch=epoch)


class TestRingRegistry:
    def test_register_and_fetch_ring(self):
        coord = CoordinationService()
        coord.register_ring(overlay())
        fetched = coord.ring(0)
        assert [m.name for m in fetched.members] == ["a", "b", "c"]
        assert fetched.coordinator == "a"
        assert coord.ring_ids() == [0]

    def test_unknown_ring_raises(self):
        with pytest.raises(KeyError):
            CoordinationService().ring(9)

    def test_ring_ids_sorted(self):
        coord = CoordinationService()
        coord.register_ring(overlay(ring_id=5))
        coord.register_ring(overlay(ring_id=1))
        assert coord.ring_ids() == [1, 5]

    def test_reregistering_replaces_the_overlay(self):
        coord = CoordinationService()
        coord.register_ring(overlay())
        coord.register_ring(overlay(names=("b", "c"), coordinator="b", epoch=1))
        fetched = coord.ring(0)
        assert [m.name for m in fetched.members] == ["b", "c"]
        assert (fetched.coordinator, fetched.epoch) == ("b", 1)

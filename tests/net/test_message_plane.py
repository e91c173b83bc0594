"""The network's send contract: size, refusal and the delivery-time arithmetic.

``Network.send`` charges ``size_bytes + HEADER_BYTES`` and has no default
size.  An object without ``size_bytes`` raises ``AttributeError`` naming its
class and leaves the stats, the channel's occupancy and the jitter stream
exactly as they were, so the sends after it are charged as if it had never
been tried.  A destination that only another shard hosts (``Network.refuse``)
raises ``SimulationError`` naming both actors, before the fault check and the
size read, and moves nothing either.  The delivery time keeps the float
association the goldens were taken with.
"""

from __future__ import annotations

import pytest

from repro.net.message import Message
from repro.sim.actor import Actor, Environment
from repro.sim.kernel import SimulationError
from repro.sim.network import MessageStats, Network
from repro.sim.topology import Topology


class _Recorder(Actor):
    """Sink recording ``(delivery_time, message)`` pairs."""

    def __init__(self, env, name, site):
        super().__init__(env, name, site)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.env.simulator.now, message))


class _Unsized:
    """A payload without a ``size_bytes`` attribute."""


class _SelfSized:
    size_bytes = 500


def _network():
    """Sender ``a`` at s0, receiver ``b`` at s1, ``r`` refused; jitter on."""
    topology = Topology()
    topology.add_site("s0")
    topology.add_site("s1")
    topology.set_link("s0", "s1", one_way_latency=0.01, bandwidth_bps=1e6)
    env = Environment(seed=4)
    network = Network(env, topology, jitter_fraction=0.05)
    _Recorder(env, "a", "s0")
    receiver = _Recorder(env, "b", "s1")
    network.refuse({"r"})
    return env, network, receiver


def _outcome(env, network, receiver):
    """What the network did: deliveries, stats, occupancy."""
    free_at = network._channels[("s0", "s1")].free_at
    env.run()
    return receiver.received, network.stats, free_at


def _assert_untouched(env, network, receiver):
    """Nothing moved: the next send is charged exactly as in a fresh network."""
    assert network.stats == MessageStats()
    assert network._channels[("s0", "s1")].free_at == 0.0
    sized = Message(payload_bytes=100)
    network.send("a", "b", sized)
    twin_env, twin_network, twin_receiver = _network()
    twin_network.send("a", "b", sized)
    assert _outcome(env, network, receiver) == _outcome(twin_env, twin_network, twin_receiver)


def test_unsized_send_raises_and_moves_nothing():
    env, network, receiver = _network()
    with pytest.raises(AttributeError, match="'_Unsized' object has no attribute 'size_bytes'"):
        network.send("a", "b", _Unsized())
    _assert_untouched(env, network, receiver)


def test_blocked_unsized_send_is_a_drop():
    # The fault check comes first: a send the partition swallows never
    # reaches the size.
    _env, network, _receiver = _network()
    network.partition("s0", "s1")
    network.send("a", "b", _Unsized())
    assert network.stats == MessageStats(dropped=1)


def test_unsized_send_to_an_unknown_destination_is_a_drop():
    # An unresolvable destination is dropped before the size is read.
    _env, network, _receiver = _network()
    network.send("a", "nobody", _Unsized())
    assert network.stats == MessageStats(dropped=1)
    assert ("a", "nobody") not in network._connections


def test_declared_size_is_charged_with_the_header():
    _env, network, _receiver = _network()
    network.send("a", "b", _SelfSized())
    network.send("a", "b", Message(payload_bytes=100))
    expected = (500 + Network.HEADER_BYTES) + (100 + Message.OVERHEAD_BYTES + Network.HEADER_BYTES)
    assert network.stats == MessageStats(messages=2, bytes=expected)


@pytest.mark.parametrize("case", ["sized", "unsized", "partitioned"])
def test_a_refused_destination_raises_before_anything_moves(case):
    """The raise names both actors and precedes the fault check and the size read."""
    env, network, receiver = _network()
    message = _Unsized() if case == "unsized" else Message(payload_bytes=100)
    if case == "partitioned":
        network.partition("s0", "s1")
    for _ in range(2):  # never cached: every attempt raises
        with pytest.raises(SimulationError, match="'a' sent to 'r', which only another shard hosts"):
            network.send("a", "r", message)
    assert ("a", "r") not in network._connections
    network.heal_all()
    _assert_untouched(env, network, receiver)


def test_refuse_leaves_hosted_and_unknown_names_alone():
    env, network, receiver = _network()
    network.refuse({"b"})  # hosted here: still delivered
    network.send("a", "b", Message(payload_bytes=100))
    network.send("a", "nobody", Message(payload_bytes=100))
    env.run()
    assert len(receiver.received) == 1
    assert network.stats.messages == 1 and network.stats.dropped == 1


def test_delivery_time_keeps_the_float_association():
    """``now + ((finish - now) + propagation + jitter)``, scheduled at
    ``now + (delivery_at - now)``: at this clock ``finish + propagation +
    jitter`` and ``now + (transmission + propagation + jitter)`` each land an
    ulp away, so a reassociation of the delay turns this red."""
    env, network, receiver = _network()
    env.simulator.run_window(4.4)
    network.send("a", "b", Message(payload_bytes=100))
    env.run()
    ((delivered, _),) = receiver.received
    assert delivered.hex() == "0x1.1a5de90d008b0p+2"

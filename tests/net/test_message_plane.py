"""The network's size contract: a message's wire size is its ``size_bytes``.

``Network.send`` charges ``size_bytes + HEADER_BYTES`` and has no default
size.  An object without ``size_bytes`` raises ``AttributeError`` naming its
class — on the local path and on the gateway path alike — and leaves the
stats, the channel's occupancy and the jitter stream exactly as they were, so
the sends after it are charged as if it had never been tried.
"""

from __future__ import annotations

import pytest

from repro.net.message import Message
from repro.sim.actor import Actor, Environment
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
    """Sender ``a`` at s0; local receiver ``b`` and remote ``r`` at s1; jitter on."""
    topology = Topology()
    topology.add_site("s0")
    topology.add_site("s1")
    topology.set_link("s0", "s1", one_way_latency=0.01, bandwidth_bps=1e6)
    env = Environment(seed=4)
    network = Network(env, topology, jitter_fraction=0.05)
    _Recorder(env, "a", "s0")
    receiver = _Recorder(env, "b", "s1")
    network.set_remote_routes({"r": "s1"})
    return env, network, receiver


def _outcome(env, network, receiver):
    """What the network did: gateway records, local deliveries, stats, occupancy."""
    outbox = network.drain_outbox()
    free_at = network._channels[("s0", "s1")].free_at
    env.run()
    return outbox, receiver.received, network.stats, free_at


@pytest.mark.parametrize("dst", ["b", "r"], ids=["local", "gateway"])
def test_unsized_send_raises_and_moves_nothing(dst):
    env, network, receiver = _network()
    with pytest.raises(AttributeError, match="'_Unsized' object has no attribute 'size_bytes'"):
        network.send("a", dst, _Unsized())
    assert network.stats == MessageStats()
    assert network._channels[("s0", "s1")].free_at == 0.0

    # The next send is charged exactly as in a network that never saw the
    # unsized one: same occupancy, same jitter draw, same delivery time.
    sized = Message(payload_bytes=100)
    network.send("a", dst, sized)
    twin_env, twin_network, twin_receiver = _network()
    twin_network.send("a", dst, sized)
    assert _outcome(env, network, receiver) == _outcome(twin_env, twin_network, twin_receiver)


@pytest.mark.parametrize("dst", ["b", "r"], ids=["local", "gateway"])
def test_blocked_unsized_send_is_a_drop(dst):
    # The fault check comes first: a send the partition swallows never
    # reaches the size.
    _env, network, _receiver = _network()
    network.partition("s0", "s1")
    network.send("a", dst, _Unsized())
    assert network.stats == MessageStats(dropped=1)


def test_unsized_send_to_an_unknown_destination_is_a_drop():
    # An unresolvable destination is dropped before the size is read.
    _env, network, _receiver = _network()
    network.send("a", "nobody", _Unsized())
    assert network.stats == MessageStats(dropped=1)
    assert ("a", "nobody") not in network._connections


def test_gateway_connection_is_cached_without_a_deliver():
    _env, network, _receiver = _network()
    network.send("a", "r", Message(payload_bytes=10))
    network.send("a", "b", Message(payload_bytes=10))
    gateway = network._connections[("a", "r")]
    local = network._connections[("a", "b")]
    assert gateway.deliver is None and callable(local.deliver)
    # Both resolve to the one s0 -> s1 channel.
    assert gateway.channel is local.channel is network._channels[("s0", "s1")]
    network.send("a", "r", Message(payload_bytes=10))
    assert network._connections[("a", "r")] is gateway
    assert [dst for _, _, dst, _ in network.drain_outbox()] == ["r", "r"]


def test_gateway_and_local_sends_are_timed_alike():
    # The same sends, once to the local receiver and once through the
    # gateway: the outbox records the very times the heap delivers at.
    sends = [Message(payload_bytes=size) for size in (100, 900, 40)]
    env, network, receiver = _network()
    for message in sends:
        network.send("a", "b", message)
    env.run()
    _twin_env, gateway, _twin_receiver = _network()
    for message in sends:
        gateway.send("a", "r", message)
    outbox = gateway.drain_outbox()
    assert [(at, message) for at, _, _, message in outbox] == receiver.received
    assert gateway.stats == network.stats


def test_gateway_sends_occupy_the_shared_channel():
    # Interleaving a gateway send between two local ones charges the channel
    # exactly as three local sends would: the gateway record gets the second
    # delivery time.  (1 kB messages: transmission outlasts any jitter, so
    # per-connection FIFO never clamps.)
    sends = [Message(payload_bytes=1000) for _ in range(3)]
    all_local_env, all_local, all_local_receiver = _network()
    for message in sends:
        all_local.send("a", "b", message)
    all_local_env.run()
    env, network, receiver = _network()
    for message, dst in zip(sends, ["b", "r", "b"]):
        network.send("a", dst, message)
    assert network._channels[("s0", "s1")].free_at == all_local._channels[("s0", "s1")].free_at
    outbox = network.drain_outbox()
    env.run()
    times = [at for at, _ in all_local_receiver.received]
    assert [at for at, _, _, _ in outbox] == times[1:2]
    assert [at for at, _ in receiver.received] == [times[0], times[2]]


@pytest.mark.parametrize("dst", ["b", "r"], ids=["local", "gateway"])
def test_declared_size_is_charged_with_the_header(dst):
    _env, network, _receiver = _network()
    network.send("a", dst, _SelfSized())
    network.send("a", dst, Message(payload_bytes=100))
    expected = (500 + Network.HEADER_BYTES) + (100 + Message.OVERHEAD_BYTES + Network.HEADER_BYTES)
    assert network.stats == MessageStats(messages=2, bytes=expected)

"""Tests of the network model and the deployment topologies."""

import pytest

from repro.net.message import Message
from repro.sim.actor import Actor, Environment
from repro.sim.network import Network
from repro.sim.topology import EC2_REGIONS, Topology, ec2_global, single_datacenter
from tests.conftest import SendTap


class Sink(Actor):
    """Records every delivered (sender, message, time) triple."""

    def __init__(self, env, name, site="dc1"):
        super().__init__(env, name, site)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message, self.now))


def make_env(topology=None):
    env = Environment(seed=1)
    Network(env, topology or single_datacenter(), jitter_fraction=0.0)
    return env


class TestTopology:
    def test_single_datacenter_rtt(self):
        topo = single_datacenter()
        assert 2 * topo.latency("dc1", "dc1") == pytest.approx(0.0001)

    def test_ec2_global_has_all_regions_and_links(self):
        topo = ec2_global()
        assert {s.name for s in topo.sites()} == set(EC2_REGIONS)
        for a in EC2_REGIONS:
            for b in EC2_REGIONS:
                assert topo.latency(a, b) > 0

    def test_ec2_subset(self):
        topo = ec2_global(["us-west-2", "us-east-1"])
        assert len(topo.sites()) == 2
        assert topo.latency("us-west-2", "us-east-1") == pytest.approx(0.035)

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            ec2_global(["mars-central-1"])

    def test_wan_latency_exceeds_lan_latency(self):
        topo = ec2_global()
        assert topo.latency("eu-west-1", "us-west-2") > topo.latency("eu-west-1", "eu-west-1")

    def test_missing_link_raises(self):
        topo = Topology()
        topo.add_site("a")
        topo.add_site("b")
        with pytest.raises(KeyError):
            topo.latency("a", "b")

    def test_duplicate_site_rejected(self):
        topo = Topology()
        topo.add_site("a")
        with pytest.raises(ValueError):
            topo.add_site("a")

    def test_sites_come_back_in_insertion_order(self):
        topo = Topology()
        topo.add_site("b1")
        topo.add_site("a1")
        assert [s.name for s in topo.sites()] == ["b1", "a1"]


class TestMessageSize:
    def test_message_declares_size(self):
        env = make_env()
        a = Sink(env, "a")
        Sink(env, "b")
        tap = SendTap(env.network)
        a.send("b", Message(payload_bytes=100))
        assert tap.bytes == 148 + Network.HEADER_BYTES

    def test_unsized_object_is_refused(self):
        env = make_env()
        a = Sink(env, "a")
        Sink(env, "b")
        tap = SendTap(env.network)
        with pytest.raises(AttributeError, match="'object' object has no attribute 'size_bytes'"):
            a.send("b", object())
        assert tap.messages == 0


class TestNetworkDelivery:
    def test_local_delivery_has_small_latency(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        a.send("b", Message(payload_bytes=100))
        env.run()
        assert len(b.received) == 1
        assert 0 < b.received[0][2] < 0.001

    def test_wan_delivery_pays_propagation(self):
        env = make_env(ec2_global(["us-west-2", "eu-west-1"]))
        a = Sink(env, "a", site="us-west-2")
        b = Sink(env, "b", site="eu-west-1")
        a.send("b", Message(payload_bytes=100))
        env.run()
        assert b.received[0][2] >= 0.070

    def test_fifo_per_channel(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        for i in range(10):
            a.send("b", Message(payload_bytes=32 * 1024))
        env.run()
        assert [m.payload_bytes for _, m, _ in b.received] == [32 * 1024] * 10
        times = [t for _, _, t in b.received]
        assert times == sorted(times)

    def test_large_messages_queue_behind_each_other(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        a.send("b", Message(payload_bytes=10_000_000))
        a.send("b", Message(payload_bytes=100))
        env.run()
        first, second = b.received[0][2], b.received[1][2]
        assert second > first

    def test_unknown_destination_is_counted_as_drop(self):
        env = make_env()
        a = Sink(env, "a")
        a.send("ghost", Message())
        env.run()
        assert env.network.stats.dropped == 1

    def test_crashed_destination_drops_messages(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        b.crash()
        a.send("b", Message())
        env.run()
        assert b.received == []

    def test_statistics_count_messages_and_bytes(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        tap = SendTap(env.network)
        a.send("b", Message(payload_bytes=1000))
        env.run()
        assert tap.messages == 1
        assert tap.bytes > 1000
        assert env.network.stats.dropped == 0


class TestFaultInjection:
    def test_partition_blocks_and_heal_restores(self):
        topo = ec2_global(["us-west-2", "us-east-1"])
        env = make_env(topo)
        a = Sink(env, "a", site="us-west-2")
        b = Sink(env, "b", site="us-east-1")
        env.network.partition("us-west-2", "us-east-1")
        a.send("b", Message())
        env.run()
        assert b.received == []
        env.network.heal("us-west-2", "us-east-1")
        a.send("b", Message())
        env.run()
        assert len(b.received) == 1

    def test_isolate_site(self):
        env = make_env()
        a = Sink(env, "a")
        b = Sink(env, "b")
        env.network.isolate_site("dc1")
        a.send("b", Message())
        env.run()
        assert b.received == []
        env.network.rejoin_site("dc1")
        a.send("b", Message())
        env.run()
        assert len(b.received) == 1

    def test_heal_all(self):
        env = make_env()
        env.network.partition("dc1", "dc1")
        env.network.isolate_site("dc1")
        env.network.heal_all()
        a = Sink(env, "a")
        b = Sink(env, "b")
        a.send("b", Message())
        env.run()
        assert len(b.received) == 1

"""Tests of the deployment façade, the closed-loop client and the open-loop swarm."""

from collections import Counter

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import ClosedLoopClient, Command
from repro.core.smr import ProposerFrontend, StateMachineReplica
from repro.core.swarm import ClientSwarm, shared_factory
from repro.net.message import ClientRequest
from repro.sim.metrics import MetricRegistry
from repro.workloads.arrival import constant

from tests.conftest import RecordingProcess


class CountingReplica(StateMachineReplica):
    """A replica applying counter commands (used to exercise the SMR base)."""

    def __init__(self, env, name, site="dc1"):
        super().__init__(env, name, site)
        self.value = 0

    def apply_command(self, group_id, command):
        if command.op == "add":
            self.value += command.args[0]
        return {"value": self.value}

    def snapshot_state(self):
        return self.value, 64

    def install_state_snapshot(self, state):
        self.value = state

    def reset_state(self):
        self.value = 0


def add_one(sequence):
    command = Command(op="add", args=(1,), group_id=0, size_bytes=64)
    return [command], [0]


def build_counter_service(
    seed=21, concurrency=2, client_cls=ClosedLoopClient, factory=add_one, **client_kwargs
):
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=seed, config=config)
    frontends = [ProposerFrontend(system.env, f"fe{i}") for i in range(2)]
    replicas = [CountingReplica(system.env, f"rep{i}") for i in range(2)]
    members = [(f.name, "pa") for f in frontends] + [(r.name, "l") for r in replicas]
    system.create_ring(0, members)

    if client_cls is ClosedLoopClient:
        client = ClosedLoopClient(
            system.env, "client", frontends_by_group={0: "fe0"},
            request_factory=factory, concurrency=concurrency, metric_prefix="cnt",
            **client_kwargs,
        )
    else:
        client = ClientSwarm(
            system.env, "client", frontends_by_group={0: "fe0"},
            request_factory=shared_factory(factory), clients=concurrency,
            metric_prefix="cnt", **client_kwargs,
        )
    return system, frontends, replicas, client


class TestAtomicMulticastFacade:
    def test_create_ring_requires_registered_processes(self):
        system = AtomicMulticast(seed=1)
        with pytest.raises(KeyError):
            system.create_ring(0, [("ghost", "pal")])

    def test_ring_and_config_accessors(self):
        config = MultiRingConfig(rate_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        p = RecordingProcess(system.env, "p0")
        system.create_ring(3, [(p.name, "pal")])
        assert system.ring(3).coordinator == "p0"
        assert p in system.processes()
        assert system.process("p0") is p

    def test_an_unknown_ring_raises(self):
        with pytest.raises(KeyError, match="unknown ring: 9"):
            AtomicMulticast(seed=1).ring(9)

    def test_a_created_ring_is_returned_by_its_id(self):
        system = AtomicMulticast(seed=1, config=MultiRingConfig(rate_interval=None))
        p = RecordingProcess(system.env, "p0")
        overlay = system.create_ring(2, [(p.name, "pal")])
        assert system.ring(2) is overlay and overlay.ring_id == 2
        assert [m.name for m in overlay.members] == ["p0"]

    def test_every_ring_node_reads_the_deployment_s_config(self):
        system = self._two_rings()
        for name, rings in (("a0", [0]), ("a1", [0, 1]), ("a2", [1]), ("l0", [0, 1])):
            process = system.process(name)
            assert all(process.node(r).config is system.config for r in rings)

    def test_ring_ids_come_back_sorted(self):
        system = AtomicMulticast(seed=1, config=MultiRingConfig(rate_interval=None))
        p = RecordingProcess(system.env, "p0")
        system.create_ring(5, [(p.name, "pal")])
        system.create_ring(1, [(p.name, "pal")])
        assert system.ring_ids() == [1, 5]

    def test_a_reconfiguration_replaces_the_ring_s_overlay(self):
        system = self._two_rings()
        first = system.ring(0)
        assert system.ring(0) is first  # read, not rebuilt
        overlay = system.remove_from_ring(0, "a0")
        assert system.ring(0) is overlay is not first
        assert [m.name for m in overlay.members] == ["a1", "l0"]
        assert (overlay.coordinator, overlay.epoch) == ("a1", 1)
        assert [m.name for m in first.members] == ["a0", "a1", "l0"]  # never mutated

    def test_start_is_idempotent(self):
        system = AtomicMulticast(seed=1, config=MultiRingConfig(rate_interval=None))
        p = RecordingProcess(system.env, "p0")
        system.create_ring(0, [(p.name, "pal")])
        system.start()
        system.start()
        system.run(until=0.5)

    def test_crash_and_restart_process(self):
        system = AtomicMulticast(seed=1, config=MultiRingConfig(rate_interval=None))
        p = RecordingProcess(system.env, "p0")
        system.create_ring(0, [(p.name, "pal")])
        system.crash_process("p0")
        assert not p.alive
        assert "p0" in system.ring(0)  # the only acceptor is never evicted
        system.restart_process("p0")
        assert p.alive

    @staticmethod
    def _two_rings():
        system = AtomicMulticast(seed=1, config=MultiRingConfig(rate_interval=None))
        for name in ("a0", "a1", "a2", "l0"):
            RecordingProcess(system.env, name)
        system.create_ring(0, [("a0", "pal"), ("a1", "pal"), ("l0", "l")])
        system.create_ring(1, [("a1", "pa"), ("a2", "pal"), ("l0", "l")])
        return system

    def test_crash_evicts_from_every_ring_and_restart_readmits_the_same_roles(self):
        system = self._two_rings()
        before = {r: system.ring(r).member("a1") for r in (0, 1)}
        system.crash_process("a1")
        for r in (0, 1):
            assert "a1" not in system.ring(r)
            assert system.ring(r).epoch == 1
        system.restart_process("a1")
        for r in (0, 1):
            assert system.ring(r).member("a1") == before[r]
            assert system.ring(r).epoch == 2
        assert system.process("a1").alive

    def test_a_crashed_learner_leaves_every_ring_and_restart_rejoins_them(self):
        system = self._two_rings()
        system.crash_process("l0")
        assert not system.process("l0").alive
        for r in (0, 1):
            assert "l0" not in system.ring(r)
            assert system.ring(r).epoch == 1
        system.restart_process("l0")
        for r in (0, 1):
            assert system.ring(r).member("l0").learner
            assert not system.ring(r).member("l0").acceptor
        assert system.process("l0").alive

    def test_a_crashed_coordinator_hands_its_ring_to_the_first_live_acceptor(self):
        system = self._two_rings()
        assert system.ring(0).coordinator == "a0"
        system.crash_process("a0")
        assert system.ring(0).coordinator == "a1"
        assert system.ring(1).coordinator == "a1"  # untouched: a0 is not a member
        assert system.ring(1).epoch == 0


class TestProposerFrontend:
    @staticmethod
    def _two_groups():
        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
        system = AtomicMulticast(seed=4, config=config)
        frontend = ProposerFrontend(system.env, "fe")
        learners = {g: RecordingProcess(system.env, f"g{g}") for g in (0, 1)}
        for g, learner in learners.items():
            system.create_ring(g, [("fe", "p"), (learner.name, "al")])
        system.start()
        return system, frontend, learners

    def test_a_client_request_is_multicast_to_its_command_s_group(self):
        system, frontend, learners = self._two_groups()
        command = Command(op="add", args=(1,), group_id=1, size_bytes=300)
        frontend.on_service_message("client", ClientRequest(client="client", command=command))
        system.run(until=0.5)
        assert learners[1].delivered_payloads() == [command]
        assert learners[0].delivered_payloads() == []

    @pytest.mark.parametrize("message", [
        ClientRequest(client="client", command=None),
        ClientRequest(client="client", command=("add", 1)),
        Command(op="add", args=(1,), group_id=0),
    ], ids=["no-command", "not-a-command", "not-a-request"])
    def test_anything_but_a_request_carrying_a_command_is_dropped(self, message):
        system, frontend, learners = self._two_groups()
        frontend.on_service_message("client", message)
        system.run(until=0.5)
        assert all(learner.delivered_payloads() == [] for learner in learners.values())


class TestStateMachineReplicaAndClients:
    def test_commands_are_applied_and_answered(self):
        system, frontends, replicas, client = build_counter_service()
        system.start()
        system.run(until=2.0)
        assert client.completed > 10
        assert replicas[0].value == replicas[1].value
        assert replicas[0].value >= client.completed

    def test_closed_loop_keeps_bounded_outstanding(self):
        system, frontends, replicas, client = build_counter_service(concurrency=3)
        system.start()
        system.run(until=1.0)
        assert len(client._outstanding) <= 3
        assert client._issued == client.completed + len(client._outstanding)

    def test_closed_loop_max_requests(self):
        system, frontends, replicas, client = build_counter_service(
            concurrency=2, max_requests=10
        )
        system.start()
        system.run(until=2.0)
        assert client._issued == 10
        assert client.completed == 10

    def test_open_loop_client_issues_at_fixed_rate(self):
        system, frontends, replicas, client = build_counter_service(
            concurrency=1, client_cls=ClientSwarm, arrival=constant(100.0)
        )
        system.start()
        system.run(until=2.0)
        assert 150 <= client.issued <= 210
        assert client.completed > 100

    def test_latency_metrics_recorded_per_op(self):
        system, frontends, replicas, client = build_counter_service()
        system.start()
        system.run(until=1.0)
        latencies = system.env.metrics.latency("cnt.latency")
        per_op = system.env.metrics.latency("cnt.latency.add")
        assert latencies.count == client.completed
        assert per_op.count == client.completed

    def test_per_op_recorders_are_resolved_once_per_label(self, monkeypatch):
        resolved = Counter()
        latency = MetricRegistry.latency

        def counting(registry, name, *args, **kwargs):
            resolved[name] += 1
            return latency(registry, name, *args, **kwargs)

        monkeypatch.setattr(MetricRegistry, "latency", counting)

        def add_or_add_and_get(sequence):
            add = Command(op="add", args=(1,), group_id=0, size_bytes=64)
            if sequence % 2:
                return [add], [0]
            return [Command(op="get", group_id=0, size_bytes=64), add], [0]

        system, _frontends, _replicas, client = build_counter_service(
            factory=add_or_add_and_get
        )
        system.start()
        system.run(until=1.0)
        assert client.completed > 20
        assert {name: n for name, n in resolved.items() if name.startswith("cnt.")} == {
            "cnt.latency": 1, "cnt.latency.add": 1, "cnt.latency.add-get": 1,
        }
        metrics = system.env.metrics
        per_op = metrics.latency("cnt.latency.add").count + metrics.latency("cnt.latency.add-get").count
        assert per_op == client.completed

    def test_replica_counts_applied_commands(self):
        system, frontends, replicas, client = build_counter_service()
        system.start()
        system.run(until=1.0)
        assert replicas[0].commands_applied == replicas[0].value

    def test_a_replica_and_a_frontend_take_the_config_of_their_ring(self):
        system, frontends, replicas, client = build_counter_service()
        assert all(p.config is system.config for p in frontends + replicas)

    def test_smr_base_requires_subclass_hooks(self):
        config = MultiRingConfig(rate_interval=None)
        system = AtomicMulticast(seed=2, config=config)
        replica = StateMachineReplica(system.env, "bare")
        with pytest.raises(NotImplementedError):
            replica.apply_command(0, Command(op="x"))
        with pytest.raises(NotImplementedError):
            replica.snapshot_state()

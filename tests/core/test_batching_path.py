"""The batching path: shared unpacker, packed metadata, delay trigger, SMR.

Covers the end-to-end batching fixes: the recursive unpacker in
``repro.core.packing`` that every delivery-path consumer routes through, the
coordinator's size-or-timeout batch assembly, packed-value metadata
preservation across mixed proposers, and ``StateMachineReplica`` handling
``PackedValues`` payloads —
including a real kvstore PUT/GET round-trip with ``batching_enabled=True``.
"""

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.client import Command
from repro.core.packing import (
    PackedValues,
    iter_commands,
    iter_payloads,
    iter_values,
)
from repro.kvstore import MRPStoreService
from repro.kvstore.client import MRPStoreCommands
from repro.kvstore.partitioning import HashPartitioner
from repro.net.message import ClientRequest, ClientResponse
from repro.paxos.messages import SKIP, ProposalValue
from repro.ringpaxos.coordinator import CoordinatorState, InstanceBatchPolicy
from repro.sim.actor import Actor


def _value(payload, size=64, proposer="p0", proposal_id=1, created_at=0.0):
    return ProposalValue(
        payload=payload, size_bytes=size, proposer=proposer,
        proposal_id=proposal_id, created_at=created_at,
    )


def _pack(*values):
    return _value(PackedValues(values=list(values)),
                  size=sum(v.size_bytes for v in values))


class TestSharedUnpacker:
    def test_plain_value_yields_itself(self):
        v = _value("x")
        assert list(iter_values(v)) == [v]
        assert list(iter_payloads(v.payload)) == ["x"]

    def test_pack_flattens_to_leaves_in_order(self):
        a, b = _value("a", proposal_id=1), _value("b", proposer="p1", proposal_id=2)
        packed = _pack(a, b)
        assert list(iter_values(packed)) == [a, b]
        assert list(iter_payloads(packed.payload)) == ["a", "b"]

    def test_nested_packs_flatten_recursively(self):
        a, b, c = _value("a"), _value("b"), _value("c")
        nested = _pack(_pack(a, b), c)
        assert [v.payload for v in iter_values(nested)] == ["a", "b", "c"]
        assert list(iter_payloads(nested.payload)) == ["a", "b", "c"]

    def test_skips_inside_packs_are_dropped_from_payloads(self):
        packed = _pack(_value(SKIP), _value("kept"))
        assert list(iter_payloads(packed.payload)) == ["kept"]
        # iter_values keeps the skip leaf (learner accounting needs it)
        assert len(list(iter_values(packed))) == 2

    def test_iter_commands_opens_packs_and_drops_the_rest(self):
        c1 = Command(op="put", args=("k1",))
        c2 = Command(op="put", args=("k2",))
        c3 = Command(op="get", args=("k1",))
        packed = _pack(_value(c1), _pack(_value(c2), _value("opaque")), _value(c3), _value(SKIP))
        assert list(iter_commands(packed.payload)) == [c1, c2, c3]
        assert list(iter_commands(c3)) == [c3]
        assert list(iter_commands("opaque")) == []


class TestPackedMetadata:
    def _coordinator(self, max_bytes=256, max_delay=0.0):
        state = CoordinatorState(
            ring_id=0,
            batch_policy=InstanceBatchPolicy(
                enabled=True, max_bytes=max_bytes, max_delay=max_delay
            ),
        )
        state.record_promise("a0", quorum=1)
        return state

    def test_mixed_proposer_pack_keeps_all_proposal_ids(self):
        state = self._coordinator(max_bytes=256)
        v1 = _value("a", size=128, proposer="p0", proposal_id=11, created_at=0.5)
        v2 = _value("b", size=128, proposer="p1", proposal_id=22, created_at=0.3)
        state.enqueue(v1)
        state.enqueue(v2)
        [(instance, packed)] = state.next_assignments()
        assert isinstance(packed.payload, PackedValues)
        # The wrapper mirrors the first constituent but the leaves are intact.
        assert packed.created_at == 0.3
        inner = list(iter_values(packed))
        assert [(v.proposer, v.proposal_id) for v in inner] == [("p0", 11), ("p1", 22)]
        assert [v.created_at for v in inner] == [0.5, 0.3]


class TestDelayTriggerAssembly:
    def test_partial_batch_held_without_force(self):
        state = TestPackedMetadata._coordinator(self, max_bytes=256)
        state.enqueue(_value("a", size=100))
        assert state.next_assignments(force=False) == []
        assert state.has_pending()

    def test_full_batches_emit_without_force(self):
        state = TestPackedMetadata._coordinator(self, max_bytes=256)
        for i in range(3):
            state.enqueue(_value(f"v{i}", size=128))
        assignments = state.next_assignments(force=False)
        # Two values fill max_bytes; the trailing one is held.
        assert len(assignments) == 1
        assert len(assignments[0][1].payload.values) == 2
        assert state.has_pending()

    def test_force_drains_the_held_remainder(self):
        state = TestPackedMetadata._coordinator(self, max_bytes=256)
        state.enqueue(_value("a", size=100))
        state.next_assignments(force=False)
        [(instance, value)] = state.next_assignments(force=True)
        assert value.payload == "a"
        assert not state.has_pending()

    def test_oversized_single_value_emits_immediately(self):
        state = TestPackedMetadata._coordinator(self, max_bytes=256)
        state.enqueue(_value("big", size=512))
        [(instance, value)] = state.next_assignments(force=False)
        assert value.payload == "big"


class _ProbeClient(Actor):
    """Issues one PUT then one GET against a store frontend; records replies."""

    def __init__(self, env, name, frontend, commands):
        super().__init__(env, name)
        self._frontend = frontend
        self._commands = commands
        self.responses = []

    def on_start(self):
        self._send(self._commands.insert("probe-key", 64))

    def _send(self, command):
        command.client = self.name
        command.created_at = self.now
        self._awaiting = command.command_id
        self.send(
            self._frontend,
            ClientRequest(payload_bytes=command.size_bytes, client=self.name,
                          command=command, created_at=self.now),
        )

    def on_message(self, src, message):
        if not isinstance(message, ClientResponse):
            return
        if message.request_id != self._awaiting:
            return  # duplicate response from the other replica
        self._awaiting = None
        self.responses.append(message.result)
        if len(self.responses) == 1:
            self._send(self._commands.read("probe-key"))


class TestSMRPackedValues:
    def test_kvstore_round_trip_with_batching_enabled(self):
        """A PUT/GET round-trips through a real replica with batching on."""
        config = MultiRingConfig(
            batching_enabled=True,
            batch_max_bytes=4096,
            batch_max_delay=0.0005,
            rate_interval=None, checkpoint_interval=None, trim_interval=None,
        )
        system = AtomicMulticast(seed=5, config=config)
        service = MRPStoreService(
            system,
            partition_groups=[0],
            acceptors_per_partition=3,
            replicas_per_partition=2,
            global_ring_id=None,
            config=config,
        )
        commands = MRPStoreCommands(HashPartitioner([0]))
        frontend = service.frontend_map()[0]
        client = _ProbeClient(system.env, "probe", frontend, commands)
        system.start()
        system.run(until=3.0)
        assert len(client.responses) == 2
        assert client.responses[0]["value"]["inserted"]
        assert client.responses[1]["value"]["found"]
        for replica in service.replicas[0]:
            assert replica.store.read("probe-key") is not None

    def test_direct_packed_delivery_applies_every_command(self):
        """Recovery-style direct injection of a PackedValues payload."""
        from repro.kvstore import MRPStoreReplica

        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None,
                                 trim_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        replica = MRPStoreReplica(system.env, "r0", config=config)
        put = Command(op="insert", args=("k", "v", 100), size_bytes=100)
        get = Command(op="read", args=("k",), size_bytes=16)
        packed = _pack(_value(put, size=100), _value(get, size=16), _value(SKIP))
        before = replica.commands_applied
        replica.on_deliver(0, 0, packed)
        assert replica.commands_applied == before + 2
        assert replica.store.read("k") is not None


class _Inbox(Actor):
    """Records every message it receives."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


class TestSMRApplyPath:
    """``StateMachineReplica.on_deliver``: commands, packs and opaque payloads."""

    @staticmethod
    def _replica(respond_to_clients=True):
        from repro.kvstore import MRPStoreReplica

        config = MultiRingConfig(rate_interval=None, checkpoint_interval=None,
                                 trim_interval=None)
        system = AtomicMulticast(seed=1, config=config)
        replica = MRPStoreReplica(system.env, "r0", config=config,
                                  respond_to_clients=respond_to_clients)
        return system, replica, _Inbox(system.env, "inbox")

    @staticmethod
    def _command(op, *args):
        return Command(op=op, args=args, client="inbox", size_bytes=64)

    def test_a_delivered_command_is_applied_and_answered(self):
        system, replica, inbox = self._replica()
        insert = self._command("insert", "k", "v", 64)
        replica.on_deliver(3, 0, _value(insert))
        system.run(until=0.1)
        assert replica.commands_applied == 1
        [(sender, response)] = inbox.received
        assert sender == "r0"
        assert isinstance(response, ClientResponse)
        assert response.request_id == insert.command_id
        assert response.replica == "r0"
        assert response.result["group_id"] == 3
        assert response.result["value"]["inserted"]

    def test_each_command_of_a_pack_is_answered_once_in_order(self):
        system, replica, inbox = self._replica()
        insert = self._command("insert", "k", "v", 64)
        read = self._command("read", "k")
        replica.on_deliver(0, 0, _pack(_value(insert), _value(SKIP), _pack(_value(read))))
        system.run(until=0.1)
        assert [m.request_id for _, m in inbox.received] == [insert.command_id, read.command_id]
        assert inbox.received[1][1].result["value"]["found"]

    def test_a_replica_that_does_not_respond_applies_silently(self):
        system, replica, inbox = self._replica(respond_to_clients=False)
        replica.on_deliver(0, 0, _value(self._command("insert", "k", "v", 64)))
        system.run(until=0.1)
        assert replica.commands_applied == 1
        assert replica.store.read("k") is not None
        assert inbox.received == []

    @pytest.mark.parametrize("payload", ["opaque", 7, None])
    def test_an_opaque_payload_counts_as_one_applied_command(self, payload):
        system, replica, inbox = self._replica()
        replica.on_deliver(0, 0, _value(payload))
        system.run(until=0.1)
        assert replica.commands_applied == 1
        assert inbox.received == []

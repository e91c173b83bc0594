"""How a process selects the handler of a message, and what that costs it.

``MultiRingProcess.on_message`` is the one selector of ring messages: the
ring id picks the process's node, the exact message class picks the node's
handler (``RingNode.HANDLERS``), and the message's CPU is charged once —
priced on arrival, booked after the handler.  Everything else is service
traffic (``on_service_message``), which a ``StateMachineReplica`` routes
through its own table before falling back to ``on_client_message``.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core import AtomicMulticast, MultiRingConfig
from repro.core.smr import StateMachineReplica
from repro.net.message import ClientRequest, Message
from repro.paxos import messages
from repro.paxos.messages import (
    CheckpointReply,
    CheckpointRequest,
    Decision,
    Phase1A,
    Phase1B,
    Phase2Ring,
    ProposalValue,
    RetransmitReply,
    RetransmitRequest,
    TrimCommand,
    TrimQuery,
    TrimReport,
    ValueForward,
)
from repro.recovery.recover import RecoveryPhase
from repro.ringpaxos.node import GAP_REPAIR, RingNode

from tests.conftest import RecordingProcess


def _ring_message_classes():
    """Every class of :mod:`repro.paxos.messages` with a ``ring_id`` field."""
    return {
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__
        and dataclasses.is_dataclass(cls)
        and "ring_id" in {f.name for f in dataclasses.fields(cls)}
    }


def _value(payload="cmd", size=64):
    return ProposalValue(payload=payload, size_bytes=size, proposer="p9", proposal_id=7)


#: One message per ring message class.  Instance numbers sit far above what
#: the warm-up decides, so each handler runs its real path on live state.
MESSAGES = {
    Phase2Ring: lambda: Phase2Ring(
        ring_id=0, instance=990_001, ballot=1, value=_value(), votes=("p9",), origin="p9"
    ),
    Decision: lambda: Decision(
        ring_id=0, instance=990_002, value=_value(), origin="p9", carries_value=True
    ),
    ValueForward: lambda: ValueForward(ring_id=0, value=_value()),
    Phase1A: lambda: Phase1A(ring_id=0, ballot=0, from_instance=0, to_instance=10),
    Phase1B: lambda: Phase1B(ring_id=0, ballot=1, from_instance=0, to_instance=10),
    RetransmitRequest: lambda: RetransmitRequest(
        ring_id=0, from_instance=0, to_instance=2, requester="p0"
    ),
    RetransmitReply: lambda: RetransmitReply(ring_id=0, decided=[], reason=GAP_REPAIR),
    TrimQuery: lambda: TrimQuery(ring_id=0),
    TrimReport: lambda: TrimReport(ring_id=0, replica="p9", safe_instance=-1),
    TrimCommand: lambda: TrimCommand(ring_id=0, up_to_instance=-1),
}


@dataclasses.dataclass(slots=True)
class _Unlisted(Message):
    """A message naming ring 0 whose class has no ring handler."""

    ring_id: int = 0


class _CheckpointedAt(RecordingProcess):
    """A learner whose checkpoints cover instance 5 of every ring."""

    def safe_instance_for(self, group_id):
        return 5


def _ring(process_cls=RecordingProcess):
    """Three processes in every role of ring 0, past Phase 1."""
    config = MultiRingConfig(rate_interval=None, checkpoint_interval=None, trim_interval=None)
    system = AtomicMulticast(seed=7, config=config)
    processes = [process_cls(system.env, f"p{i}") for i in range(3)]
    system.create_ring(0, [(p.name, "pal") for p in processes])
    system.start()
    system.run(until=0.05)
    coordinator = system.env.actor(system.ring(0).coordinator)
    follower = next(p for p in processes if p is not coordinator)
    return system, coordinator, follower


def _cost(process, size_bytes):
    """``per_message + per_byte × size``, as a process books it."""
    model = process.node(0)._cpu_model
    return model.per_message + model.per_byte * size_bytes


def _record_service(process):
    seen = []
    process.on_service_message = lambda sender, message: seen.append((sender, message))
    return seen


class TestHandlerTable:
    def test_every_ring_message_class_has_a_handler(self):
        ring_messages = _ring_message_classes()
        assert Phase2Ring in ring_messages and TrimQuery in ring_messages
        assert ring_messages - set(RingNode.HANDLERS) == set()

    def test_every_handler_exists_and_takes_sender_and_message(self):
        for cls, name in RingNode.HANDLERS.items():
            parameters = list(inspect.signature(getattr(RingNode, name)).parameters)
            assert parameters == ["self", "sender", "message"], cls.__name__

    def test_the_table_covers_what_these_tests_send(self):
        assert set(MESSAGES) == set(RingNode.HANDLERS)


class TestRingMessageCharge:
    @pytest.mark.parametrize("cls", list(MESSAGES), ids=lambda cls: cls.__name__)
    def test_each_ring_message_is_charged_once_at_its_arrival_size(self, cls):
        _, _, follower = _ring()
        seen = _record_service(follower)
        message = MESSAGES[cls]()
        expected = follower.cpu._window_busy + _cost(follower, message.size_bytes)
        follower.on_message("p9", message)
        assert follower.cpu._window_busy == expected
        assert seen == []

    def test_a_decision_the_coordinator_strips_is_charged_at_its_arrival_size(self):
        _, coordinator, follower = _ring()
        decision = MESSAGES[Decision]()
        arrival = decision.size_bytes
        expected = coordinator.cpu._window_busy + _cost(coordinator, arrival)
        coordinator.on_message(follower.name, decision)
        assert decision.size_bytes < arrival  # stripped in place on its way on
        assert coordinator.cpu._window_busy == expected

    def test_a_trim_query_gets_a_trim_report(self):
        _, coordinator, follower = _ring(_CheckpointedAt)
        sent = []
        follower.send = lambda dest, message: sent.append((dest, message))
        query = TrimQuery(ring_id=0)
        expected = follower.cpu._window_busy + _cost(follower, query.size_bytes)
        follower.on_message(coordinator.name, query)
        assert sent == [
            (coordinator.name, TrimReport(ring_id=0, replica=follower.name, safe_instance=5))
        ]
        assert follower.cpu._window_busy == expected

    def test_a_recovery_retransmit_reply_is_charged_and_reaches_the_service_layer(self):
        _, _, follower = _ring()
        seen = _record_service(follower)
        reply = RetransmitReply(ring_id=0, decided=[(0, _value())], reason="recovery")
        expected = follower.cpu._window_busy + _cost(follower, reply.size_bytes)
        follower.on_message("p0", reply)
        assert seen == [("p0", reply)]
        assert follower.cpu._window_busy == expected

    def test_a_gap_repair_reply_feeds_the_learner(self):
        _, _, follower = _ring()
        seen = _record_service(follower)
        learner = follower.node(0).learner
        position = learner.next_to_emit
        reply = RetransmitReply(
            ring_id=0, decided=[(position, _value("repaired"))], reason=GAP_REPAIR
        )
        follower.on_message("p0", reply)
        assert seen == []
        assert learner.next_to_emit == position + 1

    @pytest.mark.parametrize(
        "message",
        [
            Message(payload_bytes=10),
            ClientRequest(payload_bytes=10),
            TrimQuery(ring_id=7),
            _Unlisted(payload_bytes=10),
        ],
        ids=["no-ring", "client-request", "other-ring", "unlisted-class"],
    )
    def test_service_traffic_is_not_charged(self, message):
        _, _, follower = _ring()
        seen = _record_service(follower)
        before = follower.cpu._window_busy
        follower.on_message("c0", message)
        assert seen == [("c0", message)]
        assert follower.cpu._window_busy == before


class _Replica(StateMachineReplica):
    """A service replica that records the client traffic it is handed."""

    def __init__(self, env, name):
        super().__init__(env, name)
        self.client_messages = []

    def on_client_message(self, sender, message):
        self.client_messages.append((sender, message))


class TestServicePlane:
    @staticmethod
    def _replica():
        system = AtomicMulticast(seed=3, config=MultiRingConfig(rate_interval=None))
        replica = _Replica(system.env, "r0")
        sent = []
        replica.send = lambda dest, message: sent.append((dest, message))
        return replica, sent

    def test_a_checkpoint_request_is_answered(self):
        replica, sent = self._replica()
        replica.on_service_message("r1", CheckpointRequest(requester="r1"))
        assert sent == [("r1", CheckpointReply(replica="r0", checkpoint_id=None))]
        assert replica.client_messages == []

    def test_recovery_replies_drive_the_recovery(self):
        replica, sent = self._replica()
        replica._recovery.start([0], ["r1"], {0: ["a0"]})
        assert replica.recovery_phase is RecoveryPhase.COLLECTING_IDS
        replica.on_service_message("r1", CheckpointReply(replica="r1", checkpoint_id=None))
        assert replica.recovery_phase is RecoveryPhase.RETRANSMITTING
        assert [(dest, type(m)) for dest, m in sent] == [
            ("r1", CheckpointRequest),
            ("a0", RetransmitRequest),
        ]
        replica.on_service_message("a0", RetransmitReply(ring_id=0, decided=[]))
        assert replica.recovery_phase is RecoveryPhase.DONE
        assert replica.client_messages == []

    def test_a_reply_without_a_running_recovery_is_dropped(self):
        replica, sent = self._replica()
        replica.on_service_message("a0", RetransmitReply(ring_id=0, decided=[]))
        assert replica.recovery_phase is RecoveryPhase.IDLE
        assert sent == [] and replica.client_messages == []

    def test_anything_else_is_client_traffic(self):
        replica, _ = self._replica()
        request = ClientRequest(payload_bytes=10)
        replica.on_service_message("c1", request)
        replica.on_service_message("c1", TrimQuery(ring_id=0))
        assert replica.client_messages == [("c1", request), ("c1", TrimQuery(ring_id=0))]

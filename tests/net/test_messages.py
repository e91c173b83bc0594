"""Tests of message size accounting."""

from repro.net.message import ClientRequest, ClientResponse, Message
from repro.paxos.messages import Decision, Phase2Ring, ProposalValue, RetransmitReply, SKIP


class TestMessageSizes:
    def test_base_message_size_includes_overhead(self):
        assert Message(payload_bytes=0).size_bytes == Message.OVERHEAD_BYTES
        assert Message(payload_bytes=100).size_bytes == 100 + Message.OVERHEAD_BYTES

    def test_client_request_and_response(self):
        request = ClientRequest(payload_bytes=512, client="c1", command="x")
        assert request.size_bytes == 512 + Message.OVERHEAD_BYTES
        response = ClientResponse(payload_bytes=32, request_id=7)
        assert response.size_bytes == 32 + Message.OVERHEAD_BYTES

    def test_client_messages_build_positionally_in_declaration_order(self):
        # The hand-written ``__init__``s take the dataclass fields in order,
        # so the generated ``__eq__`` / ``__repr__`` and the barrier wire
        # (positional by declaration) agree with construction.
        request = ClientRequest(64, "c1", "cmd", 0.5)
        assert request == ClientRequest(payload_bytes=64, client="c1", command="cmd", created_at=0.5)
        response = ClientResponse(32, 7, 2, {"found": True}, "r0")
        assert (response.request_id, response.group_id, response.result, response.replica) == (
            7, 2, {"found": True}, "r0")
        assert response.size_bytes == 32 + Message.OVERHEAD_BYTES
        assert ClientResponse().group_id is None


class TestPaxosMessageSizes:
    def test_phase2_carries_value_payload(self):
        value = ProposalValue(payload=b"x", size_bytes=4096)
        message = Phase2Ring(ring_id=0, instance=1, ballot=1, value=value)
        assert message.payload_bytes == 4096

    def test_skip_phase2_has_no_payload(self):
        skip = ProposalValue(payload=SKIP, size_bytes=0)
        message = Phase2Ring(ring_id=0, instance=1, ballot=1, value=skip, span=10)
        assert message.payload_bytes == 0
        assert message.last_instance == 10

    def test_decision_value_charged_only_when_carried(self):
        value = ProposalValue(payload=b"x", size_bytes=2048)
        carried = Decision(ring_id=0, instance=1, value=value, carries_value=True)
        assert carried.payload_bytes == 2048
        carried.strip_value()
        assert carried.payload_bytes == 0
        assert carried.size_bytes == Decision.OVERHEAD_BYTES
        assert carried.value is value  # value object retained for local learning

    def test_retransmit_reply_size_sums_values(self):
        values = [(i, ProposalValue(payload=b"x", size_bytes=100)) for i in range(5)]
        reply = RetransmitReply(ring_id=0, decided=values)
        assert reply.payload_bytes == 500

    def test_skip_sentinel_identity(self):
        assert ProposalValue(payload=SKIP, size_bytes=0).is_skip()
        assert not ProposalValue(payload="SKIP", size_bytes=0).is_skip()

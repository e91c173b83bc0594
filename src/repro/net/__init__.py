"""Networking primitives: message base types and the ring overlay."""

from .message import ClientRequest, ClientResponse, Message, next_message_id
from .ring import RingMember, RingOverlay

__all__ = [
    "ClientRequest",
    "ClientResponse",
    "Message",
    "next_message_id",
    "RingMember",
    "RingOverlay",
]

"""Networking primitives: message base types and the ring overlay."""

from .message import ClientRequest, ClientResponse, Message
from .ring import RingMember, RingOverlay

__all__ = [
    "ClientRequest",
    "ClientResponse",
    "Message",
    "RingMember",
    "RingOverlay",
]

"""Message base types and wire-size accounting.

Every protocol message in the repository derives from :class:`Message` and
declares how many bytes it would occupy on the wire.  The simulated network
(:mod:`repro.sim.network`) charges transmission time from that size, which is
what lets the benchmarks reproduce size-dependent behaviour such as Figure 3's
throughput-versus-request-size curves and the 32 KB client batching of
Sections 7.2/7.3.  The size is the contract: the network reads
``size_bytes`` and nothing else, and refuses an object that has none.

All message classes are ``slots=True`` dataclasses and ``size_bytes`` is a
plain attribute cached at construction (``payload_bytes + OVERHEAD_BYTES``)
rather than a property: the network reads it once per send.  Subclasses that
override ``__post_init__`` must re-derive ``payload_bytes`` first and finish
with ``self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES``.  The two
client messages, built once per request and once per replica reply, write
their own positional ``__init__`` that sets ``size_bytes`` directly (no
generated ``__init__`` plus ``__post_init__``).

The dataclass declaration is also the barrier wire form: a message crossing
shards ships its fields positionally, in declaration order (see the codec in
:mod:`repro.sim.network`).  Nothing is registered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

__all__ = ["Message", "ClientRequest", "ClientResponse"]


@dataclass(slots=True)
class Message:
    """Base class for protocol messages.

    Attributes
    ----------
    payload_bytes:
        Size of the application payload carried by the message.
    size_bytes:
        Wire size used by the simulated network; cached at construction as
        ``payload_bytes + OVERHEAD_BYTES``.
    OVERHEAD_BYTES:
        Per-message protocol framing added on top of the payload.
    """

    OVERHEAD_BYTES: ClassVar[int] = 48

    payload_bytes: int = 0
    size_bytes: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size_bytes = self.payload_bytes + self.OVERHEAD_BYTES


@dataclass(slots=True)
class ClientRequest(Message):
    """A request submitted by a client to a service front-end.

    The command carries its own request identity (``command_id``); the
    request is only its envelope.
    """

    client: str = ""
    command: Any = None
    created_at: float = 0.0

    def __init__(
        self, payload_bytes: int = 0, client: str = "", command: Any = None, created_at: float = 0.0
    ) -> None:
        self.payload_bytes = payload_bytes
        self.size_bytes = payload_bytes + self.OVERHEAD_BYTES
        self.client = client
        self.command = command
        self.created_at = created_at


@dataclass(slots=True)
class ClientResponse(Message):
    """A replica's answer to one command (the paper uses UDP for these).

    ``request_id`` is the answered command's ``command_id``; ``group_id`` the
    group (partition) whose replica answered — a client waiting on several
    partitions (a scan) completes once each of them answered, and a response
    without a group completes its request outright; ``result`` is what the
    replica's ``apply_command`` returned.
    """

    request_id: int = 0
    group_id: Optional[int] = None
    result: Any = None
    replica: str = ""

    def __init__(
        self,
        payload_bytes: int = 0,
        request_id: int = 0,
        group_id: Optional[int] = None,
        result: Any = None,
        replica: str = "",
    ) -> None:
        self.payload_bytes = payload_bytes
        self.size_bytes = payload_bytes + self.OVERHEAD_BYTES
        self.request_id = request_id
        self.group_id = group_id
        self.result = result
        self.replica = replica

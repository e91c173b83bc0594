"""Recursive unpacking of batched payloads.

One batching layer wraps the commands a replica ultimately executes:
coordinator instance batching (Sections 7.2/7.3).  A
:class:`~repro.ringpaxos.coordinator.PackedValues` payload groups several
proposed values — each a :class:`~repro.core.client.Command` or an opaque
benchmark payload — into one consensus instance.

Every consumer that looks inside a decided value — the merger's emit path,
the SMR apply path, the chaos oracle's expected-order digests and the
sharded engine's payload identities — needs the same unpacking rules.  This
module is the single implementation; the ``isinstance(payload,
PackedValues)`` checks that used to be copied across those layers all route
here now.

The unpacking is recursive: a ``PackedValues`` of ``PackedValues`` (which a
re-proposed repaired instance can in principle produce) flattens all the way
down, and skips nested inside a pack are dropped exactly like top-level
skips.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..paxos.messages import SKIP, ProposalValue
from ..ringpaxos.coordinator import PackedValues
from .client import Command

__all__ = [
    "PackedValues",
    "iter_values",
    "iter_payloads",
    "iter_commands",
]


def iter_values(value: ProposalValue) -> Iterator[ProposalValue]:
    """The leaf :class:`ProposalValue`\\ s inside one decided value.

    A plain value yields itself; a value whose payload is
    :class:`PackedValues` yields every constituent value, recursively.  Each
    leaf keeps its original ``(proposer, proposal_id, created_at)`` metadata,
    which is what lets clients match acks and account per-command latency
    after packing.
    """
    payload = value.payload
    if isinstance(payload, PackedValues):
        for inner in payload.values:
            yield from iter_values(inner)
    else:
        yield value


def iter_payloads(payload: Any) -> Iterator[Any]:
    """The leaf application payloads inside ``payload``, skips dropped.

    Mirrors the merger's emit rules: a skip delivers nothing, a packed
    payload delivers each constituent payload in pack order (recursively),
    anything else delivers itself.
    """
    if payload is SKIP:
        return
    if isinstance(payload, PackedValues):
        for inner in payload.values:
            yield from iter_payloads(inner.payload)
    else:
        yield payload


def iter_commands(payload: Any) -> Iterator[Command]:
    """Every :class:`Command` inside ``payload``, in delivery order.

    Opens ``PackedValues`` recursively (via :func:`iter_payloads`) and drops
    anything that is not a command (skips, opaque benchmark payloads).
    """
    for leaf in iter_payloads(payload):
        if isinstance(leaf, Command):
            yield leaf


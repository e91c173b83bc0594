"""Simulated network: point-to-point channels with latency and bandwidth.

The paper's Ring Paxos variant deliberately avoids IP multicast and uses TCP
point-to-point connections arranged in a ring.  The simulated network
therefore only needs unicast channels.  Each ordered pair of actors gets a
FIFO channel whose delivery time is

    propagation (topology latency) + transmission (size / bandwidth) + jitter

and whose messages never reorder (TCP-like FIFO per channel).  Channels track
when they become free so that back-to-back large messages queue behind each
other, which is what creates the throughput ceilings in Figures 3, 6 and 7.

Fault injection: links can be cut (``partition``) and healed, and whole sites
can be isolated, supporting the recovery experiment (Figure 8) and the
failure-injection tests.

Wire size: a message's size is its ``size_bytes`` (see
:mod:`repro.net.message`), charged with ``HEADER_BYTES`` on top.  There is no
default: an object without ``size_bytes`` raises ``AttributeError`` naming its
class, before it moves a channel or the jitter stream.

Sharded execution: the shards of a parallel run (see
:mod:`repro.sim.parallel`) exchange no messages.  The engine tells each
shard's network which actor names only other shards host
(:meth:`Network.refuse`); a send to one of them raises ``SimulationError``
naming both actors, before it moves anything.  A send to a name that no shard
hosts stays a counted drop.

Performance notes
-----------------
``send`` sits on the per-hop inner loop of every ring, so it avoids repeated
name and topology resolution:

* a flat ``(src_site, dst_site) → (latency, 1/bandwidth, shared channel)``
  table is precomputed from the topology at construction (site pairs without
  a defined link still raise ``KeyError`` on first use, as before);
* each directed actor pair resolves src/dst actors, sites and channel exactly
  once, into a ``__slots__`` connection record reused for every later send;
* fault checks are skipped entirely while no partition/isolation is active;
* the jitter RNG is only drawn when ``jitter_fraction > 0`` (the stream and
  draw order are unchanged, preserving seeded reproducibility).

Delivery timestamps are part of the repo's contract: the expressions in
``send`` keep their association, and ``tests/golden/exact.json`` pins the
delivery logs of whole deployments (order, times, message and drop counts) —
a PR that moves one says which modelled behaviour changed.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from dataclasses import dataclass, fields as dataclass_fields
from heapq import heappush
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from .actor import Environment
from .kernel import SimulationError
from .topology import Topology

__all__ = [
    "Network",
    "MessageStats",
    "encode_wire",
    "decode_wire",
]


# --------------------------------------------------------------- wire codec
#
# Barrier traffic (see :mod:`repro.sim.parallel`) is one
# ``("cell", events, segments)`` frame per worker per grid cell, carrying the
# decision-stream segments its shards recorded in the cell, plus the
# name/refuse handshake and each worker's ``finalize()`` results.  Shards
# never exchange protocol messages, so no ring traffic crosses a pipe.
# Generic pickling of the segments' dataclasses is wasteful: every slotted
# dataclass instance ships its class-resolution machinery *and* a
# per-instance state dict (``{'field': value, ...}``) whose key strings repeat
# for every record in the frame.  The wire codec strips that down to a
# positional tuple per dataclass instance:
#
#     (_wire_build, (cls, (value0, value1, ...)))
#
# The layout is the class's own declaration: values travel in
# ``dataclasses.fields`` order, so both sides of a pipe agree on it by
# construction and nothing is registered — the class itself travels by
# reference (module + qualname, memoized once per ``dumps``).  Decoding is
# plain ``pickle.loads``: ``_wire_build`` reconstructs the instance with
# ``object.__new__`` + attribute assignment, deliberately skipping
# ``__init__`` / ``__post_init__`` (cached derived fields such as
# ``size_bytes`` are ``init=False`` fields and restored verbatim).
#
# Two kinds of class keep pickle's default path, which calls their
# ``__reduce__``: a dataclass that defines its own (``RingSegment``'s two
# columns), and a plain subclass of a dataclass (its instance attributes are
# not fields).  Everything that is not a dataclass takes that path too —
# ``SKIP`` pickles by reference there, keeping its identity.
#
# Both directions run one small function per dataclass instance and nothing
# else in Python: the encoder is the C pickler with one module-level
# ``dispatch_table`` of per-class reducers, the decoder a per-class builder,
# each compiled once from the field order on first sight
# (:func:`_compile_wire_codec`).  Containers and scalars never leave the C
# pickler.  The whole frame is one ``dumps``, so the pickle memo turns an
# object repeated within it into a back-reference, and the decoded graph
# shares exactly what the sender's shared — no more (equal but distinct
# instances stay distinct) and no less.
#
# ``benchmarks/wire_replay.py`` (seed 42, the busiest worker of the ledger's
# ``dlog-sharded-w2`` call; 2-core Xeon container) replays 12 frames:
# 1 905 861 bytes against 2 806 926 with generic pickling; encoding takes
# 0.07–0.12 s (generic pickling 0.18–0.26 s) and decoding 0.04–0.07 s.

class _WireCodecs(dict):
    """Dataclasses → ``(reducer, builder)``, compiled on first use."""

    def __missing__(self, cls: type) -> Tuple[Any, Any]:
        codec = self[cls] = _compile_wire_codec(cls)
        return codec


_WIRE_CODECS = _WireCodecs()


def _compile_wire_codec(cls: type) -> Tuple[Any, Any]:
    """``(reduce, build)`` of dataclass ``cls``, specialised to its fields.

    ``reduce(obj)`` is the encoder's dispatch-table entry; ``build(values)``
    is its inverse.  A class that guards ``__setattr__`` (frozen dataclasses)
    is rebuilt through ``object.__setattr__``.
    """
    names = [f.name for f in dataclass_fields(cls)]
    fields = "".join(f"obj.{name}, " for name in names)
    if cls.__setattr__ is object.__setattr__:
        assign = f"    {fields}= values\n"
    else:
        assign = "".join(
            f"    set_field(obj, {name!r}, values[{index}])\n"
            for index, name in enumerate(names)
        )
    source = (
        "def reduce(obj):\n"
        f"    return build_global, (cls, ({fields}))\n"
        "def build(values):\n"
        "    obj = new(cls)\n"
        f"{assign}"
        "    return obj\n"
    )
    namespace = {
        "cls": cls,
        "new": object.__new__,
        "set_field": object.__setattr__,
        "build_global": _wire_build,
    }
    exec(source, namespace)
    return namespace["reduce"], namespace["build"]


def _wire_build(cls: type, values: Tuple[Any, ...]) -> Any:
    """Rebuild a dataclass instance from its positional field tuple."""
    return _WIRE_CODECS[cls][1](values)


class _WireReducers(dict):
    """The encoder's dispatch table; a dataclass gets its reducer on first sight."""

    def __missing__(self, cls: type) -> Any:
        # Only a class declared a dataclass itself, with no ``__reduce__`` of
        # its own, ships positionally; anything else takes copyreg's entry or
        # (``KeyError``) the pickler's default path.
        if "__dataclass_fields__" not in cls.__dict__ or cls.__reduce__ is not object.__reduce__:
            return copyreg.dispatch_table[cls]
        reducer = self[cls] = _WIRE_CODECS[cls][0]
        return reducer


_WIRE_REDUCERS = _WireReducers()


def encode_wire(payload: Any) -> bytes:
    """Encode one barrier window's payload as a compact pickle-5 frame."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _WIRE_REDUCERS
    pickler.dump(payload)
    return buffer.getvalue()


def decode_wire(frame: bytes) -> Any:
    """Decode a frame produced by :func:`encode_wire` (plain ``pickle.loads``)."""
    return pickle.loads(frame)


@dataclass
class MessageStats:
    """How many messages the network dropped."""

    dropped: int = 0

    def record_drop(self) -> None:
        """Record a message dropped by a partition or dead destination."""
        self.dropped += 1


class _Channel:
    """Shared state of one directed site pair: link parameters + occupancy.

    Bandwidth is stored as-is (not as a reciprocal): delivery times must be
    bit-identical to the seed implementation — a reciprocal multiply differs
    from the division by an ulp often enough to reorder mathematically
    simultaneous events, breaking seed-differential determinism.
    """

    __slots__ = ("latency", "bandwidth", "free_at")

    def __init__(self, latency: float, bandwidth_bps: float) -> None:
        self.latency = latency
        self.bandwidth = bandwidth_bps
        #: next time the channel is free (FIFO occupancy)
        self.free_at = 0.0


class _Connection:
    """Resolved state of one directed actor pair, built on first send."""

    __slots__ = ("src_site", "dst_site", "channel", "last_delivery_at", "deliver")

    def __init__(self, src_site: str, dst_site: str, channel: _Channel, deliver: Any) -> None:
        self.src_site = src_site
        self.dst_site = dst_site
        self.channel = channel
        #: last scheduled delivery time on this connection, enforcing TCP-like
        #: FIFO order even in the presence of jitter
        self.last_delivery_at = 0.0
        #: precomputed delivery closure stored into each heap entry
        self.deliver = deliver


class Network:
    """Delivers messages between registered actors according to a topology."""

    #: Fixed per-message protocol overhead (TCP/IP + framing), in bytes.
    HEADER_BYTES = 66

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        jitter_fraction: float = 0.05,
    ) -> None:
        self.env = env
        self.topology = topology
        self.stats = MessageStats()
        self._jitter = jitter_fraction
        self._rng = env.streams.stream("network.jitter")
        self._rng_random = self._rng.random
        self._simulator = env.simulator
        #: flat link table: directed (src_site, dst_site) → shared channel
        self._channels: Dict[Tuple[str, str], _Channel] = {}
        #: resolved directed actor pairs
        self._connections: Dict[Tuple[str, str], _Connection] = {}
        #: severed directed site pairs
        self._cut_links: Set[Tuple[str, str]] = set()
        #: isolated sites (all traffic in/out dropped)
        self._isolated_sites: Set[str] = set()
        #: fast-path guard: True while any partition/isolation is active
        self._has_faults = False
        #: names only other shards of a sharded run host (see :meth:`refuse`)
        self._refused: Set[str] = set()
        self._precompute_channels()
        env.network = self
        env.topology = topology

    def _precompute_channels(self) -> None:
        """Build the flat site-pair table for every link the topology defines.

        Pairs without a defined link are left out so that using them still
        raises ``KeyError`` lazily, exactly like the original per-send lookup.
        """
        names = [site.name for site in self.topology.sites()]
        for a in names:
            for b in names:
                try:
                    self._channels[(a, b)] = _Channel(
                        self.topology.latency(a, b), self.topology.bandwidth(a, b)
                    )
                except KeyError:
                    continue

    # ------------------------------------------------------------------ send
    def send(self, src: str, dst: str, message: Any) -> None:
        """Queue ``message`` from actor ``src`` to actor ``dst``.

        Messages to unknown or crashed destinations are counted as drops —
        like TCP connections to a dead host, the sender finds out through the
        protocol's own timeouts, not through the transport.  A destination
        that only another shard hosts (:meth:`refuse`) raises instead.
        """
        conn = self._connections.get((src, dst))
        if conn is None:
            conn = self._resolve(src, dst)
            if conn is None:
                self.stats.record_drop()
                return
        # Fault filtering, skipped entirely while no partition/isolation is
        # active.  Blocked sends are dropped *before* the timing arithmetic:
        # they must not advance channel occupancy or draw jitter.
        if self._has_faults and self._blocked(conn.src_site, conn.dst_site):
            self.stats.record_drop()
            return
        # An unsized message raises AttributeError here, naming its class,
        # before anything below moves.
        size = message.size_bytes + self.HEADER_BYTES
        channel = conn.channel
        now = self._simulator._now
        # Same operations, same association as the expression the goldens
        # were taken with: delivery timestamps — and therefore event order —
        # stay bit-identical.
        propagation = channel.latency
        transmission = (size * 8.0) / channel.bandwidth
        jitter = 0.0
        if self._jitter > 0:
            jitter = propagation * self._jitter * self._rng_random()
        # FIFO channel occupancy: a message cannot start transmitting before
        # the previous message on the same directed site pair finished.
        free_at = channel.free_at
        start = free_at if free_at > now else now
        finish = start + transmission
        channel.free_at = finish
        delay = (finish - now) + propagation + jitter
        # Messages between the same two processes travel on one TCP
        # connection: never deliver them out of order, whatever the jitter.
        delivery_at = now + delay
        if delivery_at < conn.last_delivery_at:
            delivery_at = conn.last_delivery_at
        conn.last_delivery_at = delivery_at
        # Inlined Simulator._post (one event per message): same entry layout
        # and the same ``now + delay`` arithmetic, one call less per send.
        # The callback is the connection's precomputed delivery closure, so
        # delivery runs without an intermediate dispatch frame.
        sim = self._simulator
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._queue,
            (now + (delivery_at - now), 0, seq, conn.deliver, (src, message)),
        )

    def _resolve(self, src: str, dst: str) -> Optional[_Connection]:
        """Build the connection record for a directed actor pair.

        Returns ``None`` when the destination is unknown (the caller records
        the drop), and raises ``SimulationError`` when it is a name only
        another shard hosts (:meth:`refuse`).  An unknown *source* raises
        ``KeyError`` as it always did — actors only send under their own
        registered name.
        """
        env = self.env
        dst_actor = env.get_actor(dst)
        if dst_actor is None:
            if dst in self._refused:
                raise SimulationError(
                    f"{src!r} sent to {dst!r}, which only another shard hosts; "
                    "the shards of a sharded run exchange no messages"
                )
            return None
        dst_site = dst_actor.site
        src_site = env.actor(src).site
        channel = self._channels.get((src_site, dst_site))
        if channel is None:
            # Site pair not in the precomputed table (e.g. a site added after
            # construction): resolve through the topology, raising KeyError
            # for undefined links exactly like the per-send lookup used to.
            channel = _Channel(
                self.topology.latency(src_site, dst_site),
                self.topology.bandwidth(src_site, dst_site),
            )
            self._channels[(src_site, dst_site)] = channel
        conn = _Connection(src_site, dst_site, channel, self._make_deliver(dst_actor))
        self._connections[(src, dst)] = conn
        return conn

    def _make_deliver(self, actor: Any) -> Any:
        """Precompute the delivery closure stored into each heap entry.

        One closure per connection: delivery runs without an intermediate
        dispatch frame or connection-record lookups.
        """
        stats = self.stats

        def deliver(src: str, message: Any) -> None:
            if actor.alive:
                # Equivalent to actor.deliver(src, message) minus its (already
                # performed) aliveness check — one call layer less per delivery.
                actor.on_message(src, message)
            else:
                stats.dropped += 1

        return deliver

    # ------------------------------------------------------- sharded execution
    def refuse(self, names: Iterable[str]) -> None:
        """Make a send to any of ``names`` raise instead of dropping.

        The parallel engine passes the actor names that only other shards
        host: shards exchange no messages, so such a send is a planning error,
        never a silent drop.  A name this network hosts itself is unaffected.
        """
        self._refused.update(names)

    # ----------------------------------------------------------------- model
    def _blocked(self, src_site: str, dst_site: str) -> bool:
        if src_site in self._isolated_sites or dst_site in self._isolated_sites:
            return True
        return (src_site, dst_site) in self._cut_links

    def _update_fault_flag(self) -> None:
        self._has_faults = bool(self._cut_links or self._isolated_sites)

    # -------------------------------------------------------- fault injection
    def partition(self, site_a: str, site_b: str, bidirectional: bool = True) -> None:
        """Cut the link between two sites."""
        self._cut_links.add((site_a, site_b))
        if bidirectional:
            self._cut_links.add((site_b, site_a))
        self._update_fault_flag()

    def heal(self, site_a: str, site_b: str) -> None:
        """Restore the link between two sites."""
        self._cut_links.discard((site_a, site_b))
        self._cut_links.discard((site_b, site_a))
        self._update_fault_flag()

    def isolate_site(self, site: str) -> None:
        """Drop every message to or from ``site``."""
        self._isolated_sites.add(site)
        self._update_fault_flag()

    def rejoin_site(self, site: str) -> None:
        """Undo :meth:`isolate_site`."""
        self._isolated_sites.discard(site)
        self._update_fault_flag()

    def heal_all(self) -> None:
        """Remove every partition and isolation."""
        self._cut_links.clear()
        self._isolated_sites.clear()
        self._update_fault_flag()

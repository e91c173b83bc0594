"""Flyweight client swarms: one actor simulating up to a million clients.

The paper's evaluation drives the services with tens of client *actors*; the
north star ("heavy traffic from millions of users") needs orders of magnitude
more clients than the actor machinery can afford — a million client actors
would mean a million Python objects, timers and metric recorders.
:class:`ClientSwarm` is the open-loop client: ``n`` clients (one for a
figure's fixed-rate client) inside ONE actor:

* per-client state lives in flat arrays (issued/completed counts, online
  flags) plus one dict of in-flight logical requests;
* pacing runs on a shared event-time wheel of ``(next_fire_time,
  client_index)`` keys drained by a single kernel timer, so ``n`` clients
  cost one outstanding simulator event, not ``n`` — and, at a steady rate,
  two array slots each rather than a heap tuple;
* the offered load follows an :class:`~repro.workloads.arrival.ArrivalCurve`
  (constant or flash crowd);
* connection churn (clients going away and coming back) and per-class SLO
  accounting (:class:`~repro.sim.metrics.SloTracker`) are built in.

Differential correctness
------------------------
The swarm is proven behaviorally identical to the actors it replaces
(``tests/core/test_swarm_differential.py``): with *port* addressing and
:attr:`ClientSwarm.STAGGER` off it emits a command stream bit-identical —
same seeds, same ``created_at``s, same delivery order through a real
service — to ``n`` individual fixed-rate client actors
(``tests/reference/open_loop.py``).

Port addressing registers one flyweight :class:`_SwarmPort` per client,
named ``"{swarm}.{index}"``: a ``__slots__`` stand-in carrying only a name
and a site, so each simulated client keeps its own network identity (its own
FIFO connections, its own response routing) while every behavior lives in
the swarm.  This is what makes bit-identity possible: the network's jitter
stream is drawn in global send order, and channel/connection state is keyed
by endpoint *names*, so issuing client ``i``'s request under the name an
individual actor would have used reproduces the exact event timeline.

Above :attr:`ClientSwarm.PORT_ADDRESSING_LIMIT` clients the swarm uses a
single shared endpoint: commands carry the swarm's own name and a globally
unique command id (``seq * n + index``) so responses demultiplex without
per-client connections — the memory-scaling mode for 10⁵–10⁶ users.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..net.message import ClientRequest, ClientResponse
from ..sim.actor import Actor, Environment
from ..sim.metrics import SloTracker
from ..workloads.arrival import ArrivalCurve
from .client import RequestFactory

__all__ = [
    "ChurnSpec",
    "ClientSwarm",
    "SwarmRequestFactory",
    "shared_factory",
    "DEFAULT_SKETCH_THRESHOLD",
]

#: Swarms of at least :data:`SKETCH_AUTO_CLIENTS` clients keep their latency
#: recorders exact up to this many samples and sketch beyond it.
DEFAULT_SKETCH_THRESHOLD = 65536
SKETCH_AUTO_CLIENTS = 10_000

#: Builds the next logical request of one flyweight client: receives the
#: client index and the client's request sequence number, returns the same
#: ``(commands, await_groups)`` pair as :data:`~repro.core.client.RequestFactory`.
SwarmRequestFactory = Callable[[int, int], Tuple[Sequence[Any], Sequence[int]]]


def shared_factory(factory: RequestFactory) -> SwarmRequestFactory:
    """Adapt a per-client :data:`RequestFactory` to the swarm signature.

    Every flyweight client draws from the same underlying factory (e.g. one
    shared YCSB workload generator), in issue order — the exact setup of the
    fig runners, where all client threads share one workload stream.
    """

    def build(index: int, sequence: int):
        return factory(sequence)

    return build


@dataclass(frozen=True)
class ChurnSpec:
    """Connection churn: clients disconnect and reconnect over time.

    ``rate`` is the aggregate disconnect rate (events/second, exponential
    interarrival); a disconnected client stays away for ``downtime`` seconds
    (scaled by a uniform factor in ``[1-JITTER, 1+JITTER]``) and then rejoins
    the wheel.  Draws come from the swarm's own ``churn`` stream, so enabling
    churn never perturbs any other seeded stream.
    """

    rate: float
    downtime: float = 0.5

    JITTER = 0.5


class _SwarmPort:
    """Flyweight network identity of one simulated client.

    Registered in the environment like an actor, but carries no behavior:
    responses delivered to the port are forwarded to the owning swarm with
    the client index attached.
    """

    __slots__ = ("name", "site", "alive", "_swarm", "_index")

    def __init__(self, name: str, site: str, swarm: "ClientSwarm", index: int) -> None:
        self.name = name
        self.site = site
        self.alive = True
        self._swarm = swarm
        self._index = index

    def on_start(self) -> None:  # the swarm issues on behalf of its ports
        pass

    def on_message(self, sender: str, message: Any) -> None:
        self._swarm._on_port_message(self._index, sender, message)


class ClientSwarm(Actor):
    """One actor simulating ``clients`` open-loop clients.

    Parameters
    ----------
    env, name, site:
        Standard actor arguments.
    frontends_by_group:
        Maps each multicast group to the process requests of that group are
        submitted to (same as the individual clients).
    request_factory:
        A :data:`SwarmRequestFactory` — ``(client_index, sequence) ->
        (commands, await_groups)``.  Use :func:`shared_factory` to adapt a
        plain per-client factory.
    clients:
        Number of simulated clients (1 to ~10⁶).
    arrival:
        The aggregate offered-load curve; each client contributes
        ``rate_at(t) / clients``.
    churn:
        Optional :class:`ChurnSpec`.
    slo:
        Optional per-class latency objectives in seconds
        (``{"gold": 0.050, ...}``) — enables ``slo.<class>.*`` accounting;
        client ``i`` belongs to the ``i``-th sorted class, round-robin.
    """

    #: Per-client ports (one network identity each) up to this many clients,
    #: the shared endpoint beyond it: per-client connections are O(clients)
    #: in the network's connection cache.
    PORT_ADDRESSING_LIMIT = 4096
    #: Spread first arrivals one aggregate interarrival apart (smooth offered
    #: load).  Off, every client's first request fires one per-client
    #: interval after start — when individual fixed-rate client actors would
    #: first fire their periodic timers; with one client the two agree.
    STAGGER = True

    def __init__(
        self,
        env: Environment,
        name: str,
        frontends_by_group: Dict[int, str],
        request_factory: SwarmRequestFactory,
        clients: int,
        arrival: ArrivalCurve,
        site: str = "dc1",
        metric_prefix: str = "client",
        churn: Optional[ChurnSpec] = None,
        slo: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(env, name, site)
        if clients < 1:
            raise ValueError("clients must be at least 1")
        self._frontends = dict(frontends_by_group)
        self._factory = request_factory
        self._n = clients
        self._arrival = arrival
        self._churn = churn
        sketch = DEFAULT_SKETCH_THRESHOLD if clients >= SKETCH_AUTO_CLIENTS else None

        # ------------------------------------------------- per-client state
        self._issued = array("q", bytes(8 * clients))
        self._completed = array("q", bytes(8 * clients))
        self._online = bytearray([1]) * clients
        #: in-flight logical requests keyed by ``sequence * n + index``:
        #: ``(groups still to answer, submission time)``
        self._outstanding: Dict[int, Tuple[set, float]] = {}
        #: the shared event-time wheel of (next_fire, client_index), merged
        #: from three sorted sources.  A cursor over the clients that have
        #: not fired yet (their first fire times are an arithmetic sequence,
        #: one tuple at a time is enough); a FIFO of re-arms in two columns,
        #: taking every fired client's re-arm not below the last one it took
        #: (at a steady rate all of them: the clock only moves forward); and a
        #: heap for the rest (after the rate went up) and for reconnects
        self._heap: List[Tuple[float, int]] = []
        self._fifo_times = array("d")
        self._fifo_indices = array("q")
        self._fifo_head = 0
        self._cold_head: Optional[Tuple[float, int]] = None
        self._cold_origin = 0.0
        self._cold_step = 0.0
        #: under a constant curve: every client's interval, computed once
        #: (the curve's rate does not depend on time)
        self._constant_interval: Optional[float] = None
        self._armed_for: Optional[float] = None

        # -------------------------------------------------------- addressing
        #: one port per client, or none (the shared endpoint)
        self._ports: List[_SwarmPort] = []
        if clients <= self.PORT_ADDRESSING_LIMIT:
            for i in range(clients):
                port = _SwarmPort(f"{name}.{i}", site, self, i)
                env.register(port)  # type: ignore[arg-type]
                self._ports.append(port)

        # ----------------------------------------------------------- metrics
        self._latency = env.metrics.latency(f"{metric_prefix}.latency", sketch=sketch)
        self._throughput = env.metrics.throughput(f"{metric_prefix}.throughput")
        self._slo: Optional[SloTracker] = None
        #: SLO classes, sorted: client ``i`` is in ``classes[i % len(classes)]``
        self._slo_classes: Tuple[str, ...] = ()
        if slo:
            self._slo = SloTracker(env.metrics, slo, sketch=sketch)
            self._slo_classes = tuple(sorted(slo))
        self._churn_counters = (
            env.metrics.counter(f"{metric_prefix}.churn.disconnects"),
            env.metrics.counter(f"{metric_prefix}.churn.reconnects"),
        )
        #: lazily bound network send (the network usually attaches after
        #: actor construction, mirroring Actor.send's caching)
        self._raw_send: Optional[Callable[[str, str, Any], None]] = None

    # ------------------------------------------------------------------ start
    def on_start(self) -> None:
        now = self.now
        # Computed as 1 / per-client-rate — the exact expression an
        # individual fixed-rate client uses for its interval, so the fire
        # times agree bit-for-bit in the differential.
        interval = 1.0 / (self._arrival.rate_at(now) / self._n)
        if self._arrival.kind == "constant":
            self._constant_interval = interval
        if self.STAGGER:
            self._cold_origin = now
            self._cold_step = interval / self._n
        else:
            self._cold_origin = now + interval
            self._cold_step = 0.0
        self._cold_head = self._cold_entry(0)
        self._arm_wheel()
        if self._churn is not None:
            self._schedule_churn()

    # ------------------------------------------------------------- issue side
    def _issue(self, index: int) -> None:
        if not self.alive:
            return
        sequence = self._issued[index]
        self._issued[index] = sequence + 1
        commands, await_groups = self._factory(index, sequence)
        key = sequence * self._n + index
        now = self.env.simulator._now
        self._outstanding[key] = (set(await_groups), now)
        if self._ports:
            src = self._ports[index].name
            request_key = sequence  # the id an individual actor would use
        else:
            src = self.name
            request_key = key
        send = self._raw_send
        if send is None:
            network = self.env.network
            if network is None:
                raise RuntimeError("environment has no network attached")
            send = self._raw_send = network.send
        for command in commands:
            command.client = src
            command.created_at = now
            command.command_id = request_key
            send(
                src,
                self._frontends[command.group_id],
                ClientRequest(command.size_bytes, src, command, now),
            )

    # -------------------------------------------------------- event-time wheel
    @property
    def _wheel(self) -> List[Tuple[float, int]]:
        """Every pending re-arm as one heap (moves the FIFO into the heap).

        For inspection: the merge pops the same order from any split of the
        re-arms between the FIFO and the heap.
        """
        heap = self._heap
        times, indices = self._fifo_times, self._fifo_indices
        for position in range(self._fifo_head, len(times)):
            heapq.heappush(heap, (times[position], indices[position]))
        del times[:], indices[:]
        self._fifo_head = 0
        return heap

    def _cold_entry(self, index: int) -> Optional[Tuple[float, int]]:
        """``(first fire time, index)`` of a client that has not fired yet."""
        if index >= self._n:
            return None
        if self._cold_step:
            return (self._cold_origin + (index + 1) * self._cold_step, index)
        return (self._cold_origin, index)

    def _arm_wheel(self) -> None:
        """Arm the timer for the earliest entry of the three sources."""
        head = self._heap[0][0] if self._heap else None
        cold = self._cold_head
        if cold is not None and (head is None or cold[0] < head):
            head = cold[0]
        times = self._fifo_times
        if self._fifo_head < len(times) and (head is None or times[self._fifo_head] < head):
            head = times[self._fifo_head]
        self._arm_at(head)

    def _arm_at(self, head: Optional[float]) -> None:
        """Arm the wheel's one kernel timer for ``head`` (``None``: nothing pending)."""
        if head is None:
            self._armed_for = None
            return
        if self._armed_for is not None and self._armed_for <= head:
            return  # an armed timer already covers the head
        self._armed_for = head
        # Push at the *absolute* head time (plain _post entry layout) rather
        # than call_later(head - now): now + (head - now) can land an ulp off
        # head, which would break bit-identity with individual client timers.
        sim = self.env.simulator
        if head < sim._now:
            raise RuntimeError(f"wheel head {head} is in the past (now={sim._now})")
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._queue, (head, seq, self._wheel_tick, ()))

    def _wheel_tick(self) -> None:
        if not self.alive:
            return
        self._armed_for = None
        sim = self.env.simulator
        now = sim._now
        n = self._n
        wheel = self._heap
        cold = self._cold_head
        times = self._fifo_times
        indices = self._fifo_indices
        head = self._fifo_head
        tail = len(times)
        # The FIFO's head key and its last appended key (None when empty).
        fifo = last = None
        if head < tail:
            fifo = (times[head], indices[head])
            last = (times[-1], indices[-1])
        interval = self._constant_interval
        while True:
            # Pop order is one heap's over all three sources: the smallest
            # (time, index) of their heads (equal keys are the same client at
            # the same time, so which of them pops first makes no difference).
            key = fifo
            source = 1
            if wheel and (key is None or wheel[0] < key):
                key = wheel[0]
                source = 2
            if cold is not None and (key is None or cold < key):
                key = cold
                source = 3
            if key is None or key[0] > now:
                break
            index = key[1]
            if source == 1:
                head += 1
                fifo = (times[head], indices[head]) if head < tail else None
            elif source == 2:
                heapq.heappop(wheel)
            else:
                # The next cold client's first fire (``_cold_entry``, inlined).
                following = index + 1
                if following >= n:
                    cold = None
                elif self._cold_step:
                    cold = (self._cold_origin + (following + 1) * self._cold_step, following)
                else:
                    cold = (self._cold_origin, following)
            if not self._online[index]:
                continue  # reconnection re-enters the wheel
            self._issue(index)
            if interval is None:
                interval = 1.0 / (self._arrival.rate_at(now) / n)
            entry = (now + interval, index)
            if fifo is None or entry >= last:
                times.append(entry[0])
                indices.append(index)
                tail += 1
                last = entry
                if fifo is None:
                    fifo = entry
            else:
                heapq.heappush(wheel, entry)
        if head * 2 > tail:
            del times[:head]
            del indices[:head]
            head = 0
        self._fifo_head = head
        self._cold_head = cold
        if key is None:
            return
        # The loop stopped at the smallest pending key, later than now: arm
        # the next fire there (``_arm_at``, inlined — no timer is armed, the
        # tick cleared ``_armed_for``).
        fire = key[0]
        self._armed_for = fire
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._queue, (fire, seq, self._wheel_tick, ()))

    # ------------------------------------------------------------------ churn
    def _schedule_churn(self) -> None:
        assert self._churn is not None
        rng = self.rng("churn")
        delay = rng.expovariate(self._churn.rate)
        self.set_timer(delay, self._churn_tick)

    def _churn_tick(self) -> None:
        assert self._churn is not None
        rng = self.rng("churn")
        victim = rng.randrange(self._n)
        if self._online[victim]:
            self._online[victim] = 0
            self._churn_counters[0].increment()
            # The connection is gone: in-flight requests of this client are
            # forgotten, so late responses are ignored (like responses to a
            # crashed client actor).
            stale = [k for k in self._outstanding if k % self._n == victim]
            for k in stale:
                del self._outstanding[k]
            spec = self._churn
            factor = 1.0 + spec.JITTER * (2.0 * rng.random() - 1.0)
            self.set_timer(max(1e-6, spec.downtime * factor), lambda: self._reconnect(victim))
        self._schedule_churn()

    def _reconnect(self, index: int) -> None:
        if self._online[index]:
            return
        self._online[index] = 1
        self._churn_counters[1].increment()
        interval = 1.0 / (self._arrival.rate_at(self.now) / self._n)
        heapq.heappush(self._heap, (self.now + interval, index))
        self._arm_wheel()

    # ---------------------------------------------------------- response side
    def _on_port_message(self, index: int, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        self._complete(index, message.request_id * self._n + index, message)

    def on_message(self, sender: str, message: Any) -> None:
        if not isinstance(message, ClientResponse):
            return
        key = message.request_id
        # Every replica of the group answers; all but the first find the
        # request already complete.
        if key in self._outstanding:
            self._complete(key % self._n, key, message)

    def _complete(self, index: int, key: int, message: ClientResponse) -> None:
        entry = self._outstanding.get(key)
        if entry is None:
            return  # duplicate, or the client churned away meanwhile
        pending, submitted_at = entry
        group_id = message.group_id
        if group_id is not None:
            pending.discard(group_id)
        else:
            pending.clear()
        if pending:
            return
        del self._outstanding[key]
        self._completed[index] += 1
        elapsed = self.env.simulator._now - submitted_at
        self._latency.record(elapsed)
        self._throughput.record(1.0)
        if self._slo is not None:
            classes = self._slo_classes
            self._slo.record(classes[index % len(classes)], elapsed)

    # -------------------------------------------------------------- inspection
    @property
    def clients(self) -> int:
        """Number of simulated clients."""
        return self._n

    @property
    def issued(self) -> int:
        """Logical requests issued across all clients."""
        return sum(self._issued)

    @property
    def completed(self) -> int:
        """Logical requests completed across all clients."""
        return sum(self._completed)

    @property
    def outstanding(self) -> int:
        """Logical requests currently in flight."""
        return len(self._outstanding)

    @property
    def online(self) -> int:
        """Clients currently connected."""
        return sum(self._online)

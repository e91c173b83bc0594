"""Deterministic parallel execution of sharded simulations.

The single-process kernel caps every experiment at one core.  This module
adds the classic conservative parallel-discrete-event recipe on top of it:
a deployment whose rings are *independent* (no process participates in rings
of two different shards) is partitioned into **shards**, each shard runs its
own fast-path :class:`~repro.sim.kernel.Simulator` in a ``multiprocessing``
worker, and shards synchronise at **barriers**.

Correctness argument
--------------------
* The **lookahead** is the minimum cross-shard link latency.  A message sent
  at simulated time ``s`` can only be delivered at ``>= s + lookahead``
  (propagation alone exceeds the window), so exchanging outboxes at the
  barrier and injecting them before the next window starts never delivers a
  message late, provided no window is longer than the lookahead *measured
  from the earliest event that could send anything*.
  :meth:`Network.inject_remote` raises on a violation instead of reordering
  history.
* **Adaptive event horizons**: every barrier exchanges each shard's
  :meth:`~repro.sim.kernel.Simulator.next_event_time` (plus its gateway
  outbox frontier).  The next window then ends at ``min(next local event
  anywhere, next in-flight cross-shard arrival) + lookahead``: nothing can
  execute — and therefore nothing can *send* — before that minimum ``T``, so
  any message generated inside the window is due at ``>= T + lookahead``,
  i.e. at or after the next barrier.  Idle and bursty phases are skipped in
  one hop where the textbook protocol (one barrier per lookahead, work or
  not) would grind through ``ceil(until / lookahead)`` windows; where a
  window ends never changes which events run or when, so delivery order is
  that of the merged single-simulator run and the barrier count
  (``ParallelRunResult.windows``) is the only thing the placement moves.
* Within a shard, event order is exactly the single-process order: the same
  kernel, the same named RNG streams (streams are derived per name from the
  experiment seed, so a shard draws the same sequences it would draw in a
  merged run), the same channel-occupancy state (channels are per directed
  site pair and shards do not share sites).
* Cross-shard messages are routed in a canonical order (ascending source
  shard id, send order within a shard), so injection — and therefore the tie
  break among simultaneous events — does not depend on the worker count.

Consequently ``run_sharded(specs, workers=k)`` produces bit-identical
per-shard results for every ``k``; ``workers=1``
executes the same windowed schedule sequentially in-process and is the
reference "single-process engine" the differential tests compare against.
For deployments with **no** cross-shard traffic the result is additionally
bit-identical to running the merged deployment on one shared simulator (see
``tests/bench/test_parallel_differential.py``), provided network jitter is
disabled — jitter draws come from one shared stream in a merged run and
would otherwise interleave across shards.

Deployments whose rings share **learners only** (the paper's Figure 6/7
configurations: every replica subscribes to all rings) are sharded without
the shared learner: each ring component runs in its own shard and a
deterministic **merge stage** reconstructs the shared learner's round-robin
delivery order in the parent.  The merge is *streaming*: at every barrier
each shard ships the decision-stream **segments** recorded since the last
barrier — via :meth:`ShardHarness.drain_segments`, alongside the
``next_event_time``/outbox-frontier exchange — and the parent's
``segment_sink`` feeds them into a
:class:`~repro.multiring.merge.MergeCursor` (typically through a
:class:`~repro.core.smr.ReactiveReplicaHost`, so live service replicas apply
merged deliveries and answer clients *during* the run).  The shipped
segments are incarnation- and resume-position-tagged
(:class:`~repro.multiring.merge.RingSegment`), which makes the stream
fault-tolerant: a crashed in-shard learner's rings drop out of the cut (the
consumer's joint watermark stalls honestly), and the restarted
incarnation's re-emitted prefix is deduped by the cursor.  Shard sets that
exchange no messages can still request barriers purely as a streaming
cadence with ``segment_interval=`` — any interval is safe because no
cross-shard message exists to be late, and the event schedule is untouched
(windowed execution runs the exact same events as a single window).  The
callers plan their own shards: the chaos planner splits a scenario into
:func:`~repro.multiring.sharding.ring_components`
(:func:`repro.chaos.scenario.shardable_components`), and
:mod:`repro.bench.parallel` puts one ring or region per shard.

Barrier-plane mechanics (round 2)
---------------------------------
The multiprocess transport is engineered so the synchronisation itself stays
off the critical path without ever touching the event schedule:

* **Compact wire framing** — each worker's barrier traffic is one
  ``encode_wire`` frame per round (:func:`repro.sim.network.encode_wire`:
  highest-protocol pickle with dataclasses in positional tuple form and
  window-level payload interning via the pickle memo).  A
  window broadcast to a worker with no inbound messages is the bare
  two-tuple ``("window", end)`` — no per-shard dict is allocated or shipped.
  ``ParallelRunResult.ipc_bytes``/``ipc_messages`` count both directions as
  framed on the pipes.
* **Overlapped merge stage** — barrier segments are double-buffered: the
  parent broadcasts window ``N+1`` *before* feeding window ``N``'s segments
  to ``segment_sink``, so reactive ingest runs while the workers execute.
  Segments are still applied strictly in barrier order and, as before, the
  sink for window ``N`` completes before any window-``N+1`` segment is even
  decoded — consumer state (``MergeCursor``/``ReactiveReplicaHost``) sees
  the exact sequence the serial engine produced.  ``merge_stage_s`` measures
  sink time wherever it runs; ``merge_overlap_s`` is the (conservatively
  credited) portion spent while at least one worker was still executing,
  i.e. ingest time that no longer extends the wall clock.
* **Horizon-aware skips** — with a lookahead and no streaming sink, a
  worker whose every shard reported a horizon strictly
  beyond the window end and that has no inbound messages is not woken at
  all: an empty window is a pure no-op (the kernel executes nothing, sends
  nothing, cuts nothing), and ``run_window`` is monotonic, so the worker's
  next real window catches it up identically.  The worker owning the global
  event frontier always has ``horizon <= end`` and therefore always runs
  (no livelock), the final window (``end == until``) is never skipped, and
  a pending phase callback (:meth:`ShardHarness.at`) counts towards a
  shard's horizon, so no worker is skipped past one.  Skips are counted in
  ``worker_windows_skipped``.
* **Out-of-order collection** — replies are absorbed as workers finish
  (``multiprocessing.connection.wait``) instead of in fixed pipe order, so
  decoding early finishers overlaps the stragglers and a worker that dies
  mid-window surfaces immediately as an error naming the worker and its
  shards (its pipe hits EOF) rather than hanging the round.  Outboxes are
  still routed by :func:`_route_outbound`'s canonical ascending-shard order
  afterwards, so injection stays independent of arrival order.

Usage sketch::

    def build(payload):                      # top-level → picklable
        system = ...                         # construct one shard
        return ShardHarness(system.env)

    specs = [ShardSpec(i, build, payload_i) for i in range(4)]
    result = run_sharded(specs, workers=4)   # no cross traffic: one window
    result = run_sharded(specs, until=10.0, workers=4, lookahead=0.005)

Builders run *inside* the worker process; payloads must be picklable, the
simulated objects never cross process boundaries (only outbox messages and
the ``finalize()`` summaries do).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .actor import Environment
from .kernel import SimulationError, gc_paused
from .network import RemoteMessage, encode_wire

__all__ = [
    "ShardHarness",
    "ShardSpec",
    "ParallelRunResult",
    "run_sharded",
]


class ShardHarness:
    """One shard's deployment, as driven by the parallel engine.

    Wraps an :class:`~repro.sim.actor.Environment` and runs its kernel window
    by window.  A shard embeds its own script (a measurement's warm-up reset,
    a chaos scenario's healing epilogue) as **phase callbacks** registered
    with :meth:`at`, which fire wherever the windows happen to fall; a
    builder that installs a segment buffer with :meth:`stream_segments`
    makes the shard a streaming-merge producer.  Subclasses override
    :meth:`start` and :meth:`finalize` (a picklable per-shard result for the
    parent process).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: pending ``(time, callback)`` phases, in firing order
        self._phases: List[Tuple[float, Callable[[], None]]] = []
        #: segment buffer cut at every barrier (see :meth:`stream_segments`)
        self.segments: Optional[Any] = None

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once every event up to ``time`` has executed.

        The callback fires inside whichever window first reaches ``time`` —
        exactly where a ``run(until=time)`` call would have returned — so a
        shard's script runs the same events however the engine places its
        barriers.  Callbacks due at the same time fire in registration order.
        """
        self._phases.append((time, callback))
        self._phases.sort(key=lambda phase: phase[0])

    def stream_segments(self, buffer: Any) -> None:
        """Ship ``buffer.cut()`` at every barrier (see :meth:`drain_segments`)."""
        self.segments = buffer

    # ------------------------------------------------------------- inventory
    def actor_sites(self) -> Dict[str, str]:
        """Map of this shard's actor names to their sites (for routing)."""
        return {actor.name: actor.site for actor in self.env.actors()}

    def set_remote_routes(self, routes: Dict[str, str]) -> None:
        """Teach this shard's network where other shards' actors live."""
        if routes and self.env.network is not None:
            self.env.network.set_remote_routes(routes)

    def start(self) -> None:
        """Start the shard's deployment (override; called exactly once).

        Runs after every shard is built and cross-shard routes are installed,
        but before the first window — the right place for
        ``AtomicMulticast.start()`` / actor ``on_start`` hooks, whose very
        first sends may already cross shards.
        """

    # -------------------------------------------------------------- stepping
    def run_window(self, end: Optional[float]) -> None:
        """Advance the shard to ``end`` (``None``: run the queue dry).

        Called once per window (once in all with neither a lookahead nor a
        segment interval).  Phases due by ``end`` fire on the way, each
        right after the kernel has executed every event up to its time.
        """
        simulator = self.env.simulator
        phases = self._phases
        while phases and (end is None or phases[0][0] <= end):
            time, callback = phases.pop(0)
            simulator.run_window(time)
            callback()
        if end is None:
            self.env.run()
        elif simulator.now < end or simulator.next_event_time() == end:
            # Skipped when a phase at ``end`` left nothing to run: an idle
            # run entry would still pay a full GC pass (see ``gc_paused``)
            # over the live deployment.
            simulator.run_window(end)

    def run_to_end(self, until: float) -> None:
        """Run this harness alone, in this process: :meth:`start`, then one window.

        The in-process executor: the same phase script, and therefore the
        same events, as :func:`run_sharded` executing it window by window.
        """
        self.start()
        self.run_window(until)

    def next_event_time(self) -> Optional[float]:
        """This shard's event horizon, reported at every barrier.

        The earliest pending work anywhere in the shard: the kernel's next
        live event, the next phase callback, or — for custom harnesses that
        have not drained their gateway outbox yet — the earliest queued
        cross-shard delivery (the outbox frontier).  ``None`` means the shard
        is fully drained.  The adaptive barrier protocol takes the minimum
        over all shards (and all in-flight cross-shard messages) to place the
        next window.
        """
        horizon = self.env.simulator.next_event_time()
        if self._phases:
            phase = self._phases[0][0]
            if horizon is None or phase < horizon:
                horizon = phase
        network = self.env.network
        if network is not None:
            frontier = network.outbox_frontier
            if frontier is not None and (horizon is None or frontier < horizon):
                horizon = frontier
        return horizon

    def drain_outbox(self) -> List[RemoteMessage]:
        """Cross-shard messages sent during the last window (send order)."""
        network = self.env.network
        return network.drain_outbox() if network is not None else []

    def drain_segments(self) -> Optional[Any]:
        """Streaming payload to ship through this barrier.

        Called at every barrier, right after the window ran.  A shard with a
        segment buffer (:meth:`stream_segments`) returns ``(watermark,
        segments)`` — the shard's simulated time (everything at or before it
        has executed, so the shard's streams are complete up to it) plus the
        per-ring decision-stream segments recorded since the last barrier
        (``ring_id → RingSegment``, each tagged with the producer's
        incarnation and its resume position, possibly empty).  Rings whose
        learner is crashed are *omitted* — absence means "not covered up to
        this watermark", so the consumer's joint watermark stalls honestly;
        after a restart the bumped incarnation tells the consumer to expect
        a re-emitted prefix and dedup it.  Without a buffer it returns
        ``None`` and ships nothing.
        """
        if self.segments is None:
            return None
        return (self.env.now, self.segments.cut())

    def inject(self, records: Sequence[RemoteMessage]) -> None:
        """Deliver messages handed over at the barrier into this shard."""
        if records:
            self.env.network.inject_remote(records)

    # --------------------------------------------------------------- results
    def finalize(self) -> Any:
        """Picklable per-shard result returned to the parent (override)."""
        return None

    @property
    def processed_events(self) -> int:
        """Events this shard's kernel has executed so far."""
        return self.env.simulator.processed_events


@dataclass(frozen=True)
class ShardSpec:
    """Recipe for one shard: a top-level builder plus its picklable payload.

    ``build(payload)`` runs inside the worker process and returns the shard's
    :class:`ShardHarness`.  The builder must be a module-level callable so the
    spec can cross the ``multiprocessing`` boundary.

    ``weight`` is the shard's expected relative load (e.g. its ring count, as
    the chaos planner sets it, or its driven clients, as the sharded figure
    runners do): the engine balances shards over workers by weight, heaviest
    first, so one heavyweight shard does not share a worker with others while
    a peer worker sits near idle.
    """

    shard_id: int
    build: Callable[[Any], ShardHarness]
    payload: Any = None
    weight: float = 1.0


@dataclass
class ParallelRunResult:
    """Outcome of one :func:`run_sharded` call."""

    #: per-shard ``finalize()`` results, keyed by shard id
    results: Dict[int, Any]
    #: wall-clock seconds of the whole run (build + windows + finalize)
    wall_clock: float
    #: number of barrier windows executed (the barrier count)
    windows: int
    #: cross-shard messages exchanged at barriers
    cross_messages: int
    #: per-shard kernel event counts
    events: Dict[int, int] = field(default_factory=dict)
    #: worker processes actually used (1 = in-process reference engine)
    workers: int = 1
    #: bytes framed onto the worker pipes, both directions (0 in-process)
    ipc_bytes: int = 0
    #: frames exchanged with the workers, both directions (0 in-process)
    ipc_messages: int = 0
    #: seconds spent inside ``segment_sink`` (reactive merge ingest)
    merge_stage_s: float = 0.0
    #: portion of :attr:`merge_stage_s` that ran while workers were still
    #: executing the next window (overlapped, i.e. off the critical path)
    merge_overlap_s: float = 0.0
    #: windows a worker was not woken for (horizon beyond the window end)
    worker_windows_skipped: int = 0

    @property
    def total_events(self) -> int:
        """Events executed across every shard."""
        return sum(self.events.values())

    @property
    def barrier_count(self) -> int:
        """Alias of :attr:`windows`, the number of barriers executed."""
        return self.windows

    @property
    def merge_overlap_fraction(self) -> float:
        """Fraction of merge-stage time hidden behind worker execution."""
        if self.merge_stage_s <= 0.0:
            return 0.0
        return self.merge_overlap_s / self.merge_stage_s


# ---------------------------------------------------------------------------
# Worker-side execution (shared by the in-process and subprocess paths)
# ---------------------------------------------------------------------------

class _ShardSet:
    """Builds and steps a set of shards, in ascending shard-id order."""

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self.harnesses: Dict[int, ShardHarness] = {}
        for spec in sorted(specs, key=lambda s: s.shard_id):
            self.harnesses[spec.shard_id] = spec.build(spec.payload)

    def actor_sites(self) -> Dict[int, Dict[str, str]]:
        return {sid: h.actor_sites() for sid, h in self.harnesses.items()}

    def set_routes(self, routes_by_shard: Dict[int, Dict[str, str]]) -> None:
        for sid, routes in routes_by_shard.items():
            self.harnesses[sid].set_remote_routes(routes)

    def start(self) -> Tuple[
        Dict[int, List[RemoteMessage]],
        Dict[int, Optional[float]],
        Dict[int, Any],
    ]:
        """Start every shard; returns (t=0 cross messages, horizons, segments)."""
        outbound: Dict[int, List[RemoteMessage]] = {}
        horizons: Dict[int, Optional[float]] = {}
        segments: Dict[int, Any] = {}
        for sid in sorted(self.harnesses):
            harness = self.harnesses[sid]
            harness.start()
            out = harness.drain_outbox()
            if out:
                outbound[sid] = out
            horizons[sid] = harness.next_event_time()
            shipped = harness.drain_segments()
            if shipped is not None:
                segments[sid] = shipped
        return outbound, horizons, segments

    def run_window(
        self,
        end: Optional[float],
        inbound: Dict[int, List[RemoteMessage]],
    ) -> Tuple[
        Dict[int, List[RemoteMessage]],
        Dict[int, int],
        Dict[int, Optional[float]],
        Dict[int, Any],
    ]:
        outbound: Dict[int, List[RemoteMessage]] = {}
        events: Dict[int, int] = {}
        horizons: Dict[int, Optional[float]] = {}
        segments: Dict[int, Any] = {}
        for sid in sorted(self.harnesses):
            harness = self.harnesses[sid]
            harness.inject(inbound.get(sid, ()))
            harness.run_window(end)
            out = harness.drain_outbox()
            if out:
                outbound[sid] = out
            events[sid] = harness.processed_events
            horizons[sid] = harness.next_event_time()
            shipped = harness.drain_segments()
            if shipped is not None:
                segments[sid] = shipped
        return outbound, events, horizons, segments

    def finalize(self) -> Dict[int, Any]:
        return {sid: h.finalize() for sid, h in self.harnesses.items()}


#: Shared empty inbound map for the ``("window", end)`` fast path — windows
#: with no inbound traffic allocate nothing on either side of the pipe.
_NO_INBOUND: Dict[int, List[RemoteMessage]] = {}


def _worker_main(conn, specs: Sequence[ShardSpec], parent_ends: Sequence[Any]) -> None:
    """Entry point of one worker process: build shards, serve barrier rounds.

    Frames every reply as one explicit ``encode_wire`` byte blob
    (``send_bytes``) so the parent can count IPC volume exactly.

    ``parent_ends`` are the parent's ends of this worker's pipe and of every
    pipe created before it, which a forked worker inherits.  They are closed
    first: a worker holding them open would keep its own (and its siblings')
    pipe from reaching EOF when the parent closes its copy, so a surviving
    worker would never notice the parent giving up on the run.
    """
    for end in parent_ends:
        end.close()
    try:
        shard_set = _ShardSet(specs)
        conn.send_bytes(encode_wire(("ready", shard_set.actor_sites())))
        with gc_paused():
            while True:
                command = pickle.loads(conn.recv_bytes())
                op = command[0]
                if op == "window":
                    # ("window", end) is the empty fast path: no inbound dict
                    # on the wire, none allocated here.
                    inbound = command[2] if len(command) > 2 else _NO_INBOUND
                    outbound, events, horizons, segments = shard_set.run_window(
                        command[1], inbound
                    )
                    conn.send_bytes(encode_wire(("out", outbound, events, horizons, segments)))
                elif op == "routes":
                    shard_set.set_routes(command[1])
                    conn.send_bytes(encode_wire(("ok",)))
                elif op == "start":
                    outbound, horizons, segments = shard_set.start()
                    conn.send_bytes(encode_wire(("out", outbound, {}, horizons, segments)))
                elif op == "finish":
                    conn.send_bytes(encode_wire(("result", shard_set.finalize())))
                    return
                else:  # pragma: no cover - protocol bug
                    raise RuntimeError(f"unknown command {op!r}")
    except Exception as exc:  # surface worker crashes with their traceback
        import traceback

        try:
            conn.send_bytes(pickle.dumps(("error", f"{exc}\n{traceback.format_exc()}")))
        except Exception:  # pragma: no cover - parent already gone
            pass


# ---------------------------------------------------------------------------
# Parent-side orchestration
# ---------------------------------------------------------------------------

def _build_routing(
    sites_by_shard: Dict[int, Dict[str, str]],
    require_unique: bool,
) -> Tuple[Dict[str, int], Dict[int, Dict[str, str]]]:
    """Global actor→shard map plus, per shard, the remote actor→site routes.

    Actor names appearing in several shards are unroutable; that is fine for
    embarrassingly parallel runs (no cross traffic) but an error as soon as a
    lookahead — and therefore routing — is requested.
    """
    owner: Dict[str, int] = {}
    ambiguous = set()
    for sid in sorted(sites_by_shard):
        for name in sites_by_shard[sid]:
            if name in owner:
                ambiguous.add(name)
            else:
                owner[name] = sid
    if ambiguous and require_unique:
        raise SimulationError(
            "cross-shard routing needs globally unique actor names; duplicated: "
            f"{sorted(ambiguous)[:5]}"
        )
    for name in ambiguous:
        owner.pop(name, None)
    routes_by_shard: Dict[int, Dict[str, str]] = {}
    for sid in sorted(sites_by_shard):
        routes_by_shard[sid] = {
            name: sites_by_shard[other][name]
            for name, other in owner.items()
            if other != sid
        }
    return owner, routes_by_shard


def _route_outbound(
    outbound_by_shard: Dict[int, List[RemoteMessage]],
    owner: Dict[str, int],
) -> Tuple[Dict[int, List[RemoteMessage]], int]:
    """Turn per-source outboxes into per-destination inboxes, canonically.

    Messages are processed in ascending source-shard order, preserving each
    shard's send order — the same total order regardless of how shards were
    spread over workers, which keeps injection (and simultaneous-event tie
    breaks) independent of the worker count.
    """
    inbound: Dict[int, List[RemoteMessage]] = {}
    count = 0
    for sid in sorted(outbound_by_shard):
        for record in outbound_by_shard[sid]:
            dst_shard = owner.get(record[2])
            if dst_shard is None:
                raise SimulationError(
                    f"cross-shard message to unknown actor {record[2]!r}"
                )
            inbound.setdefault(dst_shard, []).append(record)
            count += 1
    return inbound, count


def run_sharded(
    specs: Sequence[ShardSpec],
    until: Optional[float] = None,
    workers: int = 1,
    lookahead: Optional[float] = None,
    segment_interval: Optional[float] = None,
    segment_sink: Optional[Callable[[Dict[int, Any]], None]] = None,
) -> ParallelRunResult:
    """Execute shards under conservative barrier synchronisation.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per shard; shard ids must be unique.
    until:
        Simulation horizon.  Required when ``lookahead`` is set; with no
        lookahead it may be ``None`` (each shard runs its queue dry — the
        embarrassingly parallel case).
    workers:
        Worker processes.  ``1`` runs every shard sequentially in-process —
        the *single-process reference engine* used by the differential tests;
        higher counts fork workers and balance shards over them by
        :attr:`ShardSpec.weight`, heaviest first to the least-loaded worker.
        Clamped to the shard count.
    lookahead:
        Safe window length in simulated seconds — must not exceed the minimum
        latency of any link between sites hosting different shards (the
        caller knows its topology; shards sharing a site would force the
        intra-site latency).  Every barrier advances to the global event
        horizon, ``min(next local event, next cross-shard arrival) +
        lookahead``, so idle stretches cost one barrier.  ``None`` means the
        shards exchange no messages and run in a single window.
    segment_interval:
        Streaming cadence in simulated seconds for shard sets that exchange
        **no** cross-shard messages: barriers are run purely so shards can
        ship their decision-stream segments (any interval is safe — nothing
        is in flight to be late — and windowed execution runs the exact same
        events as a single window).  Requires ``until``; ignored when a
        ``lookahead`` already drives barriers.  Cross-shard traffic without
        a lookahead still raises, exactly as in the single-window case.
    segment_sink:
        Callback invoked in the parent at every barrier that shipped
        segments, with ``{shard_id: payload}`` where ``payload`` is whatever
        each shard's :meth:`ShardHarness.drain_segments` returned.  The sink
        runs between windows — the place to feed a streaming merge cursor /
        reactive service replicas.  Shards are always presented in ascending
        id order downstream of the canonical routing, so the sink sees a
        worker-count-independent sequence.  The sink for one barrier's
        segments runs *while* the workers execute the next window (the
        overlapped merge stage); the segment application order is untouched.

    Returns
    -------
    ParallelRunResult
        Per-shard ``finalize()`` results plus run accounting
        (:attr:`ParallelRunResult.windows` is the barrier count).
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one shard")
    ids = [spec.shard_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate shard ids: {sorted(ids)}")
    if lookahead is not None:
        if lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if until is None:
            raise ValueError("windowed execution needs an explicit horizon (until=...)")
    if segment_interval is not None:
        if segment_interval <= 0:
            raise ValueError("segment_interval must be positive")
        if until is None:
            raise ValueError("segment streaming needs an explicit horizon (until=...)")
    for spec in specs:
        if spec.weight <= 0:
            raise ValueError(
                f"shard {spec.shard_id} has non-positive weight {spec.weight!r}"
            )
    workers = max(1, min(int(workers), len(specs)))

    start = time.perf_counter()
    # The parent's barrier loop and reactive merge stage are run loops too.
    with gc_paused():
        if workers == 1:
            results, windows, cross, events, stats = _run_inprocess(
                specs, until, lookahead, segment_interval, segment_sink
            )
        else:
            results, windows, cross, events, stats = _run_multiprocess(
                specs, until, lookahead, workers, segment_interval, segment_sink,
            )
    wall = time.perf_counter() - start
    return ParallelRunResult(
        results=results,
        wall_clock=wall,
        windows=windows,
        cross_messages=cross,
        events=events,
        workers=workers,
        **stats,
    )


def _min_horizon(
    horizons: Dict[int, Optional[float]],
    inbound: Dict[int, List[RemoteMessage]],
) -> Optional[float]:
    """Earliest pending work anywhere: local events or in-flight arrivals.

    ``None`` means the whole deployment is drained and nothing is in flight —
    no event can ever fire again.
    """
    minimum: Optional[float] = None
    for t in horizons.values():
        if t is not None and (minimum is None or t < minimum):
            minimum = t
    for records in inbound.values():
        for record in records:
            if minimum is None or record[0] < minimum:
                minimum = record[0]
    return minimum


def _check_unwindowed_leftovers(
    inbound: Dict[int, List[RemoteMessage]],
    lookahead: Optional[float],
) -> None:
    """Reject cross-shard traffic that a lookahead-less run could not deliver.

    With a lookahead, messages still in flight after the final window are
    simply due beyond the horizon — the merged run would not deliver them
    either.  Without one the windows (a single one, or the streaming cadence
    of ``segment_interval``) give no timeliness guarantee, so *any* routed
    message means a misconfigured plan (shards that talk need a lookahead),
    and losing or reordering history silently is the one thing this engine
    promises never to do.
    """
    if lookahead is None and inbound:
        total = sum(len(records) for records in inbound.values())
        example = next(iter(inbound.values()))[0]
        raise SimulationError(
            f"{total} cross-shard message(s) were sent but the run has no "
            f"lookahead, e.g. {example[1]}->{example[2]} due "
            f"at t={example[0]:.6f}; pass lookahead= to run_sharded or plan "
            "shards so they do not communicate"
        )


def _execute_rounds(
    transport,
    owner: Dict[str, int],
    until: Optional[float],
    lookahead: Optional[float],
    segment_interval: Optional[float] = None,
    segment_sink: Optional[Callable[[Dict[int, Any]], None]] = None,
) -> Tuple[int, int, Dict[int, int], float]:
    """Drive the barrier protocol over an abstract shard transport.

    ``transport`` provides ``start() -> (outbound, horizons, segments)`` and
    ``window(end, inbound, ship, final) -> (outbound, events, horizons,
    segments)``; the in-process and multiprocessing engines differ only in
    how those rounds are executed, so the barrier planning — and therefore
    the window schedule — is shared verbatim between them (a prerequisite
    for worker-count invariance).

    Segments are double-buffered: the ones shipped at barrier ``N`` are held
    in ``staged`` and handed to the transport as the ``ship`` thunk of
    window ``N+1``, which every transport invokes exactly once — *after*
    dispatching the window to the workers (pipe transport: ingest overlaps
    worker execution) but before absorbing any window-``N+1`` reply.  The
    in-process transport ships first and then runs the window, which is the
    same sink-call sequence the pre-overlap engine produced (run ``N``,
    sink ``N``, run ``N+1``, ...).  Either way the sink sees each barrier's
    segments exactly once, in barrier order, one barrier behind the shards.
    Returns the cumulative seconds spent inside the sink as the last tuple
    element (``merge_stage_s``).
    """
    merge_s = 0.0
    #: the previous barrier's shipped segments, awaiting the sink
    staged: List[Optional[Dict[int, Any]]] = [None]

    def ship() -> float:
        """Feed the staged segments to the sink; returns seconds spent."""
        nonlocal merge_s
        segments = staged[0]
        staged[0] = None
        if not segments or segment_sink is None:
            return 0.0
        begin = time.perf_counter()
        segment_sink(segments)
        spent = time.perf_counter() - begin
        merge_s += spent
        return spent

    outbound, horizons, segments = transport.start()
    staged[0] = segments
    inbound, cross = _route_outbound(outbound, owner)
    windows = 0
    events: Dict[int, int] = {}

    # The window pitch: with cross-shard traffic the lookahead bounds how far
    # a window may safely reach past the event frontier; without it, barriers
    # exist only as a segment-streaming cadence and any pitch is safe.
    pitch = lookahead if lookahead is not None else segment_interval
    if pitch is None:
        # Single window: the embarrassingly parallel case (until may be None).
        outbound, events, horizons, segments = transport.window(
            until, inbound, ship, final=True
        )
        staged[0] = segments
        inbound, moved = _route_outbound(outbound, owner)
        cross += moved
        windows = 1
        _check_unwindowed_leftovers(inbound, lookahead)
        ship()
        return windows, cross, events, merge_s

    now = 0.0  # every shard's kernel starts at t=0 and lands exactly on `now`
    while now < until:
        frontier = _min_horizon(horizons, inbound)
        if frontier is None:
            # Nothing pending anywhere: land every clock on the horizon.
            end = until
        else:
            # Nothing can execute — and therefore nothing can send — before
            # `frontier`, so a window reaching frontier+lookahead is exactly
            # as safe as one of a single lookahead starting at `now`.
            end = min(max(frontier, now) + pitch, until)
        outbound, events, horizons, segments = transport.window(
            end, inbound, ship, final=end >= until
        )
        staged[0] = segments
        inbound, moved = _route_outbound(outbound, owner)
        cross += moved
        _check_unwindowed_leftovers(inbound, lookahead)
        windows += 1
        now = end
    # The final barrier's segments have no next window to overlap with.
    ship()
    return windows, cross, events, merge_s


class _InProcessTransport:
    """Round executor running every shard sequentially in this process.

    The ``ship`` thunk runs *before* the window here: with one process there
    is nothing to overlap with, and shipping first reproduces the serial
    engine's exact sink-call sequence (run ``N``, sink ``N``, run ``N+1``).
    """

    def __init__(self, shard_set: _ShardSet) -> None:
        self._shards = shard_set

    def start(self):
        return self._shards.start()

    def window(self, end, inbound, ship, final=False):
        ship()
        return self._shards.run_window(end, inbound)


def _run_inprocess(specs, until, lookahead, segment_interval, segment_sink):
    shard_set = _ShardSet(specs)
    sites = shard_set.actor_sites()
    owner, routes = _build_routing(sites, require_unique=lookahead is not None)
    shard_set.set_routes(routes)
    windows, cross, events, merge_s = _execute_rounds(
        _InProcessTransport(shard_set), owner, until, lookahead,
        segment_interval, segment_sink,
    )
    stats = {"merge_stage_s": merge_s}
    return shard_set.finalize(), windows, cross, events, stats


def _assign_shards(
    specs: Sequence[ShardSpec], workers: int
) -> List[List[ShardSpec]]:
    """Balance shards over workers by weight, heaviest first.

    Greedy longest-processing-time assignment: shards sorted by
    ``(-weight, shard_id)`` each go to the currently least-loaded worker
    (ties broken by worker index), so the schedule is deterministic and a
    heavyweight shard never shares a worker while a lighter-loaded worker
    exists.  Each worker's shard list is returned in ascending shard-id
    order (the execution order inside the worker).
    """
    assignment: List[List[ShardSpec]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for spec in sorted(specs, key=lambda s: (-s.weight, s.shard_id)):
        widx = min(range(workers), key=lambda w: (loads[w], w))
        assignment[widx].append(spec)
        loads[widx] += spec.weight
    for worker_specs in assignment:
        worker_specs.sort(key=lambda s: s.shard_id)
    return assignment


class _PipeTransport:
    """Round executor broadcasting barrier rounds to worker processes.

    * frames every command/reply as one explicit ``encode_wire`` byte blob
      per worker per round, counting ``ipc_bytes`` and ``ipc_messages`` in
      both directions;
    * broadcasts a window *before* running the staged merge sink, so
      reactive ingest overlaps worker execution (``overlap_s`` credits sink
      time only when at least one worker had not replied when the sink
      finished — a conservative measure);
    * skips workers whose cached horizons lie strictly beyond the window end
      when they have no inbound traffic (lookahead-driven windows, no
      streaming sink, non-final window only — see the module docstring for
      the safety argument);
    * absorbs replies in arrival order via ``connection.wait`` — a pipe that
      hits EOF mid-round surfaces as an immediate error naming the dead
      worker and its shards instead of blocking the round.
    """

    def __init__(
        self,
        pipes: Sequence[Any],
        procs: Sequence[Any],
        allow_skip: bool,
    ) -> None:
        self._pipes = list(pipes)
        self._procs = list(procs)
        self._allow_skip = allow_skip
        #: shard id → worker index, and its inverse (bound after the ready
        #: handshake, once the parent knows which shards each worker built)
        self._shard_worker: Dict[int, int] = {}
        self._worker_shards: Dict[int, List[int]] = {}
        #: freshest per-shard state from worker replies; shards of a skipped
        #: worker keep their previous values, which stay exact because a
        #: skipped window executes nothing (no events, no horizon movement)
        self._horizons: Dict[int, Optional[float]] = {}
        self._events: Dict[int, int] = {}
        self.ipc_bytes = 0
        self.ipc_messages = 0
        self.overlap_s = 0.0
        self.windows_skipped = 0

    # ------------------------------------------------------------- plumbing
    def bind(self, shard_worker: Dict[int, int]) -> None:
        """Install the shard→worker map once the ready handshake finished."""
        self._shard_worker = dict(shard_worker)
        self._worker_shards = {widx: [] for widx in range(len(self._pipes))}
        for sid, widx in shard_worker.items():
            self._worker_shards[widx].append(sid)
        self._events = {sid: 0 for sid in shard_worker}

    def send(self, widx: int, payload: Any) -> None:
        frame = encode_wire(payload)
        try:
            self._pipes[widx].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            self._raise_dead(widx, exc)
        self.ipc_bytes += len(frame)
        self.ipc_messages += 1

    def recv(self, widx: int) -> Any:
        try:
            frame = self._pipes[widx].recv_bytes()
        except (EOFError, OSError) as exc:
            self._raise_dead(widx, exc)
        self.ipc_bytes += len(frame)
        self.ipc_messages += 1
        reply = pickle.loads(frame)
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply

    def _raise_dead(self, widx: int, exc: BaseException) -> None:
        proc = self._procs[widx]
        proc.join(timeout=1)
        shards = sorted(self._worker_shards.get(widx, []))
        raise RuntimeError(
            f"shard worker {widx} (shards {shards}) died mid-run "
            f"(exit code {proc.exitcode}); its pipe reported {exc!r}"
        ) from exc

    def _absorb(
        self,
        pending: Dict[Any, int],
        outbound: Dict[int, List[RemoteMessage]],
        segments: Dict[int, Any],
    ) -> None:
        """Merge replies as workers finish (arrival order, not pipe order).

        Determinism is unaffected: outboxes are routed canonically by
        :func:`_route_outbound` afterwards, horizon minima are
        order-independent, and the per-shard dicts are disjoint across
        workers.  A dead worker's pipe becomes readable at EOF, so the
        failure surfaces here immediately instead of wedging ``recv`` on an
        earlier pipe.
        """
        while pending:
            for conn in mp_connection.wait(list(pending)):
                widx = pending.pop(conn)
                _, worker_out, worker_events, worker_horizons, worker_segments = (
                    self.recv(widx)
                )
                outbound.update(worker_out)
                self._events.update(worker_events)
                self._horizons.update(worker_horizons)
                segments.update(worker_segments)

    # --------------------------------------------------------------- rounds
    def start(self):
        for widx in range(len(self._pipes)):
            self.send(widx, ("start",))
        outbound: Dict[int, List[RemoteMessage]] = {}
        segments: Dict[int, Any] = {}
        pending = {self._pipes[widx]: widx for widx in range(len(self._pipes))}
        self._absorb(pending, outbound, segments)
        return outbound, dict(self._horizons), segments

    def _beyond_window(self, widx: int, end: float) -> bool:
        """Whether every shard of ``widx`` has its horizon strictly past ``end``.

        An unknown horizon (shard never reported — cannot happen after
        ``start``, but stay safe) counts as "has work now".
        """
        horizons = self._horizons
        for sid in self._worker_shards[widx]:
            t = horizons.get(sid, 0.0)
            if t is not None and t <= end:
                return False
        return True

    def window(self, end, inbound, ship, final=False):
        outbound: Dict[int, List[RemoteMessage]] = {}
        segments: Dict[int, Any] = {}
        pending: Dict[Any, int] = {}
        for widx, conn in enumerate(self._pipes):
            worker_inbound = {
                sid: msgs for sid, msgs in inbound.items()
                if self._shard_worker[sid] == widx
            }
            if (
                self._allow_skip
                and not final
                and not worker_inbound
                and self._beyond_window(widx, end)
            ):
                # Lightweight skip: an empty window is a pure no-op for this
                # worker (nothing executes, sends or cuts before its horizon)
                # and run_window is monotonic, so its next real window
                # catches up identically.  No wake-up, no reply.
                self.windows_skipped += 1
                continue
            if worker_inbound:
                self.send(widx, ("window", end, worker_inbound))
            else:
                # Empty fast path: two-tuple frame, no inbound dict shipped.
                self.send(widx, ("window", end))
            pending[conn] = widx
        # Overlapped merge stage: the workers are running the window we just
        # broadcast while the parent ingests the *previous* barrier's
        # segments.  Credit the sink time as overlapped only if at least one
        # worker was still busy when the sink finished (conservative: a
        # partially overlapped sink counts fully or not at all).
        ship_s = ship()
        if ship_s > 0.0 and pending:
            ready = mp_connection.wait(list(pending), timeout=0)
            if len(ready) < len(pending):
                self.overlap_s += ship_s
        self._absorb(pending, outbound, segments)
        return outbound, dict(self._events), dict(self._horizons), segments


def _run_multiprocess(specs, until, lookahead, workers, segment_interval, segment_sink):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])

    assignment = _assign_shards(specs, workers)

    # Horizon-aware skips need a lookahead (segment-interval-only runs have
    # no horizon exchange) and no streaming sink — a skipped worker ships no
    # segment cut, but a sink consumer relies on every barrier's coverage
    # for its joint watermark.
    allow_skip = lookahead is not None and segment_sink is None

    pipes = []
    procs = []
    try:
        for worker_specs in assignment:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, worker_specs, pipes + [parent_conn])
            )
            proc.daemon = True
            proc.start()
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)

        transport = _PipeTransport(pipes, procs, allow_skip)

        sites: Dict[int, Dict[str, str]] = {}
        shard_worker: Dict[int, int] = {}
        for widx in range(len(pipes)):
            _, worker_sites = transport.recv(widx)
            sites.update(worker_sites)
            for sid in worker_sites:
                shard_worker[sid] = widx
        transport.bind(shard_worker)
        owner, routes = _build_routing(sites, require_unique=lookahead is not None)
        for widx in range(len(pipes)):
            transport.send(widx, ("routes", {
                sid: routes[sid] for sid, w in shard_worker.items() if w == widx
            }))
        for widx in range(len(pipes)):
            transport.recv(widx)

        windows, cross, events, merge_s = _execute_rounds(
            transport, owner, until, lookahead, segment_interval, segment_sink,
        )

        results: Dict[int, Any] = {}
        for widx in range(len(pipes)):
            transport.send(widx, ("finish",))
        for widx in range(len(pipes)):
            _, worker_results = transport.recv(widx)
            results.update(worker_results)
        stats = {
            "ipc_bytes": transport.ipc_bytes,
            "ipc_messages": transport.ipc_messages,
            "merge_stage_s": merge_s,
            "merge_overlap_s": transport.overlap_s,
            "worker_windows_skipped": transport.windows_skipped,
        }
        return results, windows, cross, events, stats
    finally:
        for conn in pipes:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)

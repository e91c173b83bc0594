"""Deterministic parallel execution of shards that exchange no messages.

The single-process kernel caps every experiment at one core.  This module
runs a deployment split into **shards** — each its own fast-path
:class:`~repro.sim.kernel.Simulator`, in-process or in a ``multiprocessing``
worker — that never send each other a message.  That is the paper's way of
scaling Multi-Ring Paxos: rings added side by side share only learners
(Figures 6 and 7), so every ring component can run on its own core, and a
deterministic **merge stage** in the parent rebuilds the shared learner.

Correctness argument
--------------------
* Within a shard, event order is exactly the single-process order: the same
  kernel, the same named RNG streams (streams are derived per name from the
  experiment seed, so a shard draws the same sequences it would draw in a
  merged run), the same channel-occupancy state (channels are per directed
  site pair and shards do not share sites).
* No shard ever waits for another: nothing is in flight between them.  The
  engine makes that a checked property rather than an assumption.  Before
  any shard starts, each shard's network learns the actor names that only
  other shards host (:meth:`~repro.sim.network.Network.refuse`); a send to
  one of them raises ``SimulationError`` naming both actors, at the send.  A
  name that several shards host (a shared learner's mirrors) is local to each
  of them; a name that no shard hosts stays a counted drop.
* Barriers exist only as a **segment-streaming cadence**
  (``segment_interval=``).  A window ends at ``min(max(earliest pending
  work, now) + interval, until)``, where the earliest pending work is the
  minimum over every shard's :meth:`ShardHarness.next_event_time`: an idle
  stretch costs one barrier.  Where a window ends never changes which events
  run or when, so windowed execution runs the exact events of a single
  window, and the barrier count (``ParallelRunResult.windows``) is the only
  thing the placement moves.

Consequently ``run_sharded(specs, workers=k)`` produces bit-identical
per-shard results for every ``k``; ``workers=1`` executes the same schedule
sequentially in-process and is the reference "single-process engine" the
differential tests compare against.  The result is also bit-identical to
running the merged deployment on one shared simulator (see
``tests/bench/test_parallel_differential.py``), provided network jitter is
disabled — jitter draws come from one shared stream in a merged run and
would otherwise interleave across shards.

The merge is *streaming*: at every barrier each shard ships the
decision-stream **segments** recorded since the last barrier — via
:meth:`ShardHarness.drain_segments`, alongside its event horizon — and the
parent's ``segment_sink`` feeds them into a
:class:`~repro.multiring.merge.MergeCursor` (typically through a
:class:`~repro.core.smr.ReactiveReplicaHost`, so live service replicas apply
merged deliveries and answer clients *during* the run).  The shipped
segments are incarnation- and resume-position-tagged
(:class:`~repro.multiring.merge.RingSegment`), which makes the stream
fault-tolerant: a crashed in-shard learner's rings drop out of the cut (the
consumer's joint watermark stalls honestly), and the restarted
incarnation's re-emitted prefix is deduped by the cursor.  The callers plan
their own shards: the chaos planner splits a scenario into
:func:`~repro.multiring.sharding.ring_components`
(:func:`repro.chaos.scenario.shardable_components`), and
:mod:`repro.bench.parallel` puts one ring or region per shard.

Barrier-plane mechanics
-----------------------
The multiprocess transport keeps the synchronisation itself off the critical
path without ever touching the event schedule:

* **Compact wire framing** — each worker's barrier traffic is one
  ``encode_wire`` frame per round (:func:`repro.sim.network.encode_wire`:
  highest-protocol pickle with dataclasses in positional tuple form and
  window-level payload interning via the pickle memo); a window command is
  the two-tuple ``("window", end)``.  ``ParallelRunResult.ipc_bytes`` /
  ``ipc_messages`` count both directions as framed on the pipes.
* **Overlapped merge stage** — barrier segments are double-buffered: the
  parent broadcasts window ``N+1`` *before* feeding window ``N``'s segments
  to ``segment_sink``, so reactive ingest runs while the workers execute.
  Segments are still applied strictly in barrier order, and the sink for
  window ``N`` completes before any window-``N+1`` segment is even decoded —
  consumer state (``MergeCursor``/``ReactiveReplicaHost``) sees the exact
  sequence the serial engine produced.  ``merge_stage_s`` measures sink
  time wherever it runs; ``merge_overlap_s`` is the (conservatively
  credited) portion spent while at least one worker was still executing,
  i.e. ingest time that no longer extends the wall clock.
* **Out-of-order collection** — replies are absorbed as workers finish
  (``multiprocessing.connection.wait``) instead of in fixed pipe order, so
  decoding early finishers overlaps the stragglers, and a worker that dies
  mid-window surfaces immediately as an error naming the worker and its
  shards (its pipe hits EOF) rather than hanging the round.  Per-shard
  replies are disjoint, so arrival order changes nothing downstream.

Usage sketch::

    def build(payload):                      # top-level → picklable
        system = ...                         # construct one shard
        return ShardHarness(system.env)

    specs = [ShardSpec(i, build, payload_i) for i in range(4)]
    result = run_sharded(specs, workers=4)   # one window, queues run dry
    result = run_sharded(specs, until=10.0, workers=4,
                         segment_interval=0.05, segment_sink=sink)

Builders run *inside* the worker process; payloads must be picklable, the
simulated objects never cross process boundaries (only segments, event
horizons and the ``finalize()`` summaries do).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .actor import Environment
from .kernel import gc_paused
from .network import encode_wire

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

    def start(self) -> None:
        """Start the shard's deployment (override; called exactly once).

        Runs after every shard is built and its network knows which names
        only other shards host, but before the first window — the right
        place for ``AtomicMulticast.start()`` / actor ``on_start`` hooks.
        """

    # -------------------------------------------------------------- stepping
    def run_window(self, end: Optional[float]) -> None:
        """Advance the shard to ``end`` (``None``: run the queue dry).

        Called once per window (once in all without a segment interval).
        Phases due by ``end`` fire on the way, each right after the kernel
        has executed every event up to its time.
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

        The earliest pending work in the shard: the kernel's next live event
        or the next phase callback.  ``None`` means the shard is fully
        drained.  The engine takes the minimum over all shards to place the
        next window.
        """
        horizon = self.env.simulator.next_event_time()
        if self._phases:
            phase = self._phases[0][0]
            if horizon is None or phase < horizon:
                horizon = phase
        return horizon

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

    @property
    def total_events(self) -> int:
        """Events executed across every shard."""
        return sum(self.events.values())


# ---------------------------------------------------------------------------
# Worker-side execution (shared by the in-process and subprocess paths)
# ---------------------------------------------------------------------------

class _ShardSet:
    """Builds and steps a set of shards, in ascending shard-id order."""

    def __init__(self, specs: Sequence[ShardSpec]) -> None:
        self.harnesses: Dict[int, ShardHarness] = {}
        for spec in sorted(specs, key=lambda s: s.shard_id):
            self.harnesses[spec.shard_id] = spec.build(spec.payload)

    def actor_names(self) -> Dict[int, Set[str]]:
        return {
            sid: {actor.name for actor in h.env.actors()}
            for sid, h in self.harnesses.items()
        }

    def refuse(self, foreign_by_shard: Dict[int, Set[str]]) -> None:
        for sid, names in foreign_by_shard.items():
            network = self.harnesses[sid].env.network
            if network is not None:
                network.refuse(names)

    def start(self) -> Tuple[Dict[int, Optional[float]], Dict[int, Any]]:
        """Start every shard; returns (horizons, segments)."""
        horizons: Dict[int, Optional[float]] = {}
        segments: Dict[int, Any] = {}
        for sid in sorted(self.harnesses):
            harness = self.harnesses[sid]
            harness.start()
            horizons[sid] = harness.next_event_time()
            shipped = harness.drain_segments()
            if shipped is not None:
                segments[sid] = shipped
        return horizons, segments

    def run_window(self, end: Optional[float]) -> Tuple[
        Dict[int, int],
        Dict[int, Optional[float]],
        Dict[int, Any],
    ]:
        events: Dict[int, int] = {}
        horizons: Dict[int, Optional[float]] = {}
        segments: Dict[int, Any] = {}
        for sid in sorted(self.harnesses):
            harness = self.harnesses[sid]
            harness.run_window(end)
            events[sid] = harness.processed_events
            horizons[sid] = harness.next_event_time()
            shipped = harness.drain_segments()
            if shipped is not None:
                segments[sid] = shipped
        return events, horizons, segments

    def finalize(self) -> Dict[int, Any]:
        return {sid: h.finalize() for sid, h in self.harnesses.items()}


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
        conn.send_bytes(encode_wire(("ready", shard_set.actor_names())))
        with gc_paused():
            while True:
                command = pickle.loads(conn.recv_bytes())
                op = command[0]
                if op == "window":
                    events, horizons, segments = shard_set.run_window(command[1])
                    conn.send_bytes(encode_wire(("out", events, horizons, segments)))
                elif op == "refuse":
                    shard_set.refuse(command[1])
                    conn.send_bytes(encode_wire(("ok",)))
                elif op == "start":
                    horizons, segments = shard_set.start()
                    conn.send_bytes(encode_wire(("out", {}, horizons, segments)))
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

def _foreign_names(names_by_shard: Dict[int, Set[str]]) -> Dict[int, Set[str]]:
    """Per shard, the actor names that other shards host and this one does not.

    A name that several shards host (a shared learner's mirrors) is local to
    each of them, so it is refused nowhere.
    """
    everywhere = set().union(*names_by_shard.values())
    return {sid: everywhere - names for sid, names in names_by_shard.items()}


def run_sharded(
    specs: Sequence[ShardSpec],
    until: Optional[float] = None,
    workers: int = 1,
    segment_interval: Optional[float] = None,
    segment_sink: Optional[Callable[[Dict[int, Any]], None]] = None,
) -> ParallelRunResult:
    """Execute shards that exchange no messages, optionally streaming segments.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per shard; shard ids must be unique.  A send
        from one shard to an actor that only another shard hosts raises
        ``SimulationError`` (surfacing as the worker's ``RuntimeError`` with
        several workers).
    until:
        Simulation horizon.  Without a ``segment_interval`` it may be
        ``None``: each shard then runs its queue dry.
    workers:
        Worker processes.  ``1`` runs every shard sequentially in-process —
        the *single-process reference engine* used by the differential tests;
        higher counts fork workers and balance shards over them by
        :attr:`ShardSpec.weight`, heaviest first to the least-loaded worker.
        Clamped to the shard count.
    segment_interval:
        Streaming cadence in simulated seconds.  Barriers are run purely so
        shards can ship their decision-stream segments: each window ends
        ``segment_interval`` past the earliest pending work anywhere (or at
        ``until``), so idle stretches cost one barrier.  Any interval is safe
        — nothing is in flight to be late — and windowed execution runs the
        exact same events as a single window.  Requires ``until``.  ``None``
        runs a single window.
    segment_sink:
        Callback invoked in the parent at every barrier that shipped
        segments, with ``{shard_id: payload}`` where ``payload`` is whatever
        each shard's :meth:`ShardHarness.drain_segments` returned.  The sink
        runs between windows — the place to feed a streaming merge cursor /
        reactive service replicas.  The dict's iteration order follows the
        workers' replies; a sink that iterates its keys sorted (as
        ``ReactiveMergeStage.sink`` does) sees a worker-count-independent
        sequence.  The sink for one barrier's segments runs *while* the
        workers execute the next window (the overlapped merge stage); the
        segment application order is untouched.

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
            results, windows, events, stats = _run_inprocess(
                specs, until, segment_interval, segment_sink
            )
        else:
            results, windows, events, stats = _run_multiprocess(
                specs, until, workers, segment_interval, segment_sink,
            )
    wall = time.perf_counter() - start
    return ParallelRunResult(
        results=results,
        wall_clock=wall,
        windows=windows,
        events=events,
        workers=workers,
        **stats,
    )


def _execute_rounds(
    transport,
    until: Optional[float],
    segment_interval: Optional[float],
    segment_sink: Optional[Callable[[Dict[int, Any]], None]],
) -> Tuple[int, Dict[int, int], float]:
    """Drive the barrier protocol over an abstract shard transport.

    ``transport`` provides ``start() -> (horizons, segments)`` and
    ``window(end, ship) -> (events, horizons, segments)``; the in-process
    and multiprocessing engines differ only in how those rounds are
    executed, so the barrier placement — and therefore the window schedule —
    is shared verbatim between them (a prerequisite for worker-count
    invariance).

    Segments are double-buffered: the ones shipped at barrier ``N`` are held
    in ``staged`` and handed to the transport as the ``ship`` thunk of
    window ``N+1``, which every transport invokes exactly once — *after*
    dispatching the window to the workers (pipe transport: ingest overlaps
    worker execution) but before absorbing any window-``N+1`` reply.  The
    in-process transport ships first and then runs the window, which is the
    same sink-call sequence the serial engine produces (run ``N``, sink
    ``N``, run ``N+1``, ...).  Either way the sink sees each barrier's
    segments exactly once, in barrier order, one barrier behind the shards.
    Returns ``(windows, events, merge_stage_s)``, the last being the
    cumulative seconds spent inside the sink.
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

    horizons, staged[0] = transport.start()
    if segment_interval is None:
        # Single window (until may be None: every queue runs dry).
        events, horizons, staged[0] = transport.window(until, ship)
        ship()
        return 1, events, merge_s

    windows = 0
    now = 0.0  # every shard's kernel starts at t=0 and lands exactly on `now`
    while now < until:
        pending = [t for t in horizons.values() if t is not None]
        if pending:
            end = min(max(min(pending), now) + segment_interval, until)
        else:
            # Nothing pending anywhere: land every clock on the horizon.
            end = until
        events, horizons, staged[0] = transport.window(end, ship)
        windows += 1
        now = end
    # The final barrier's segments have no next window to overlap with.
    ship()
    return windows, events, merge_s


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

    def window(self, end, ship):
        ship()
        return self._shards.run_window(end)


def _run_inprocess(specs, until, segment_interval, segment_sink):
    shard_set = _ShardSet(specs)
    shard_set.refuse(_foreign_names(shard_set.actor_names()))
    windows, events, merge_s = _execute_rounds(
        _InProcessTransport(shard_set), until, segment_interval, segment_sink,
    )
    stats = {"merge_stage_s": merge_s}
    return shard_set.finalize(), windows, events, stats


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
    * absorbs replies in arrival order via ``connection.wait`` — a pipe that
      hits EOF mid-round surfaces as an immediate error naming the dead
      worker and its shards instead of blocking the round.
    """

    def __init__(
        self,
        pipes: Sequence[Any],
        procs: Sequence[Any],
        worker_shards: Sequence[List[int]],
    ) -> None:
        self._pipes = list(pipes)
        self._procs = list(procs)
        #: worker index → the ids of the shards it runs
        self._worker_shards = list(worker_shards)
        self.ipc_bytes = 0
        self.ipc_messages = 0
        self.overlap_s = 0.0

    # ------------------------------------------------------------- plumbing
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
        shards = sorted(self._worker_shards[widx])
        raise RuntimeError(
            f"shard worker {widx} (shards {shards}) died mid-run "
            f"(exit code {proc.exitcode}); its pipe reported {exc!r}"
        ) from exc

    def _absorb(self, pending: Dict[Any, int]) -> Tuple[
        Dict[int, int],
        Dict[int, Optional[float]],
        Dict[int, Any],
    ]:
        """Merge replies as workers finish (arrival order, not pipe order).

        Determinism is unaffected: the per-shard dicts are disjoint across
        workers and consumers iterate them by shard id.  A dead worker's
        pipe becomes readable at EOF, so the failure surfaces here
        immediately instead of wedging ``recv`` on an earlier pipe.
        """
        events: Dict[int, int] = {}
        horizons: Dict[int, Optional[float]] = {}
        segments: Dict[int, Any] = {}
        while pending:
            for conn in mp_connection.wait(list(pending)):
                widx = pending.pop(conn)
                _, worker_events, worker_horizons, worker_segments = self.recv(widx)
                events.update(worker_events)
                horizons.update(worker_horizons)
                segments.update(worker_segments)
        return events, horizons, segments

    # --------------------------------------------------------------- rounds
    def start(self):
        for widx in range(len(self._pipes)):
            self.send(widx, ("start",))
        _, horizons, segments = self._absorb(
            {conn: widx for widx, conn in enumerate(self._pipes)}
        )
        return horizons, segments

    def window(self, end, ship):
        pending: Dict[Any, int] = {}
        for widx, conn in enumerate(self._pipes):
            self.send(widx, ("window", end))
            pending[conn] = widx
        # Overlapped merge stage: the workers are running the window we just
        # broadcast while the parent ingests the *previous* barrier's
        # segments.  Credit the sink time as overlapped only if at least one
        # worker was still busy when the sink finished (conservative: a
        # partially overlapped sink counts fully or not at all).
        ship_s = ship()
        if ship_s > 0.0:
            ready = mp_connection.wait(list(pending), timeout=0)
            if len(ready) < len(pending):
                self.overlap_s += ship_s
        return self._absorb(pending)


def _run_multiprocess(specs, until, workers, segment_interval, segment_sink):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])

    assignment = _assign_shards(specs, workers)

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

        worker_shards = [[spec.shard_id for spec in worker_specs] for worker_specs in assignment]
        transport = _PipeTransport(pipes, procs, worker_shards)

        names: Dict[int, Set[str]] = {}
        for widx in range(len(pipes)):
            _, worker_names = transport.recv(widx)
            names.update(worker_names)
        foreign = _foreign_names(names)
        for widx, shard_ids in enumerate(worker_shards):
            transport.send(widx, ("refuse", {sid: foreign[sid] for sid in shard_ids}))
        for widx in range(len(pipes)):
            transport.recv(widx)

        windows, events, merge_s = _execute_rounds(
            transport, until, segment_interval, segment_sink,
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
        }
        return results, windows, events, stats
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

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
  (``segment_interval=``) on a fixed grid: cell ``k`` ends at
  ``k * segment_interval`` (a product, never a running sum, so every process
  computes the same floats), the last cell at ``until``.  Where a cell ends
  never changes which events run or when, so the cells run the exact events
  of a single window, and the barrier count (``ParallelRunResult.windows``,
  the number of cells after the start cell) is the only thing the grid sets.

Consequently ``run_sharded(specs, workers=k)`` produces bit-identical
per-shard results for every ``k``; ``workers=1`` walks the same cells
sequentially in-process and is the reference "single-process engine" the
differential tests compare against.  The result is also bit-identical to
running the merged deployment on one shared simulator (see
``tests/bench/test_parallel_differential.py``), provided network jitter is
disabled — jitter draws come from one shared stream in a merged run and
would otherwise interleave across shards.

The merge is *streaming*: at the end of every cell each shard ships the
decision-stream **segments** recorded since the last one — via
:meth:`ShardHarness.drain_segments` — and the parent's ``segment_sink``
feeds them into a :class:`~repro.multiring.merge.MergeCursor` (typically
through a :class:`~repro.core.smr.ReactiveReplicaHost`, so live service
replicas apply merged deliveries and answer clients *during* the run).  The
shipped segments are resume-position-tagged
(:class:`~repro.multiring.merge.RingSegment`), which makes the stream
fault-tolerant: a crashed in-shard learner's rings drop out of the cut (the
consumer's joint watermark stalls honestly), and the shard's segment buffer
drops the restarted learner's re-emission of what it already shipped, so
the cursor sees each decided instance once.  The callers plan
their own shards: the chaos planner splits a scenario into
:func:`~repro.multiring.sharding.ring_components`
(:func:`repro.chaos.scenario.shardable_components`), and
:mod:`repro.bench.parallel` puts one ring or region per shard.

Free-running workers
--------------------
Every worker gets the cell ends when it is forked.  After one name/refuse
handshake it runs its shards cell by cell and writes one ``encode_wire``
frame per cell, ``("cell", events, segments)``, then its ``finalize()``
results: it never waits for the parent.  The parent absorbs frames as they
arrive (``multiprocessing.connection.wait``: a dead worker's pipe hits EOF
and surfaces at once, naming the worker and its shards) and feeds cell ``k``
to ``segment_sink`` once every worker's cell-``k`` frame is in, so the sink
sequence is the same for any worker count.  Both sides go through the
frames in order, so pipe back-pressure cannot deadlock.

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
counts and the ``finalize()`` summaries do).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from itertools import count, takewhile
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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

        Called once per cell (once in all without a segment interval).
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
        same events, as :func:`run_sharded` executing it cell by cell.
        """
        self.start()
        self.run_window(until)

    def drain_segments(self) -> Optional[Any]:
        """Streaming payload to ship through this barrier.

        Called at every barrier, right after the cell ran.  A shard with a
        segment buffer (:meth:`stream_segments`) returns ``(watermark,
        segments)`` — the shard's simulated time (everything at or before it
        has executed, so the shard's streams are complete up to it) plus the
        per-ring decision-stream segments recorded since the last barrier
        (``ring_id → RingSegment``, each tagged with its resume position,
        possibly empty).  Rings whose learner is crashed are *omitted* —
        absence means "not covered up to this watermark", so the consumer's
        joint watermark stalls honestly; after a restart the buffer drops
        the re-emitted prefix it already shipped.  Without a buffer it
        returns ``None`` and ships nothing.
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
    """

    shard_id: int
    build: Callable[[Any], ShardHarness]
    payload: Any = None


@dataclass
class ParallelRunResult:
    """Outcome of one :func:`run_sharded` call."""

    #: per-shard ``finalize()`` results, keyed by shard id
    results: Dict[int, Any]
    #: wall-clock seconds of the whole run (build + cells + finalize)
    wall_clock: float
    #: number of cells executed after the start cell (the barrier count)
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
    #: portion of :attr:`merge_stage_s` spent while some worker was still
    #: running ahead (overlapped, i.e. off the critical path)
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

    def cells(self, ends: Sequence[Optional[float]]) -> Iterator[
        Tuple[Dict[int, int], Dict[int, Any]]
    ]:
        """Start every shard, then run them cell by cell to each of ``ends``.

        Yields ``(events, segments)`` per cell, the start cell first (no
        events): per shard, the kernel's event count and whatever
        :meth:`ShardHarness.drain_segments` shipped (shards that ship nothing
        are absent).
        """
        harnesses = self.harnesses
        for harness in harnesses.values():
            harness.start()
        yield {}, self._drain()
        for end in ends:
            for harness in harnesses.values():
                harness.run_window(end)
            yield {sid: h.processed_events for sid, h in harnesses.items()}, self._drain()

    def _drain(self) -> Dict[int, Any]:
        shipped = {sid: h.drain_segments() for sid, h in self.harnesses.items()}
        return {sid: payload for sid, payload in shipped.items() if payload is not None}

    def finalize(self) -> Dict[int, Any]:
        return {sid: h.finalize() for sid, h in self.harnesses.items()}


def _worker_main(
    conn, specs: Sequence[ShardSpec], ends: Sequence[Optional[float]], parent_ends: Sequence[Any]
) -> None:
    """Entry point of one worker process: build shards, stream every cell.

    Frames every message as one explicit ``encode_wire`` byte blob
    (``send_bytes``) so the parent can count IPC volume exactly.  The only
    frame the worker reads is the parent's refuse list.

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
        shard_set.refuse(pickle.loads(conn.recv_bytes()))
        with gc_paused():
            for events, segments in shard_set.cells(ends):
                conn.send_bytes(encode_wire(("cell", events, segments)))
            conn.send_bytes(encode_wire(("result", shard_set.finalize())))
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


def _cell_ends(until: Optional[float], segment_interval: Optional[float]) -> List[Optional[float]]:
    """The grid: ``k * segment_interval`` below ``until``, then ``until``."""
    if segment_interval is None:
        return [until]
    return [*takewhile(lambda end: end < until, (k * segment_interval for k in count(1))), until]


def _timed_sink(
    segment_sink: Optional[Callable[[Dict[int, Any]], None]], segments: Dict[int, Any]
) -> float:
    """Feed one cell's segments to the sink; returns the seconds it took."""
    if not segments or segment_sink is None:
        return 0.0
    begin = time.perf_counter()
    segment_sink(segments)
    return time.perf_counter() - begin


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
        higher counts fork workers and deal the shards out to them
        round-robin in shard-id order.  Clamped to the shard count.
    segment_interval:
        Streaming cadence in simulated seconds.  Cells exist purely so
        shards can ship their decision-stream segments: cell ``k`` ends at
        ``k * segment_interval``, the last one at ``until``.  Any interval
        is safe — nothing is in flight to be late — and cells run the exact
        same events as a single window.  Requires ``until``.  ``None`` runs
        a single window.
    segment_sink:
        Callback invoked in the parent once per cell that shipped segments
        (the start cell first), with ``{shard_id: payload}`` where
        ``payload`` is whatever each shard's
        :meth:`ShardHarness.drain_segments` returned — the place to feed a
        streaming merge cursor / reactive service replica.  Cell ``k``'s
        call comes once every worker has shipped cell ``k``, while the
        workers run on; the dict's iteration order follows the workers'
        frames, so a sink that iterates its keys sorted (as
        ``ReactiveReplicaHost.sink`` does) sees a worker-count-independent
        sequence.

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
    workers = max(1, min(int(workers), len(specs)))
    ends = _cell_ends(until, segment_interval)

    start = time.perf_counter()
    # The parent's cell loop and reactive merge stage are run loops too.
    with gc_paused():
        if workers == 1:
            results, events, stats = _run_inprocess(specs, ends, segment_sink)
        else:
            results, events, stats = _run_multiprocess(specs, ends, workers, segment_sink)
    wall = time.perf_counter() - start
    return ParallelRunResult(
        results=results,
        wall_clock=wall,
        windows=len(ends),
        events=events,
        workers=workers,
        **stats,
    )


def _run_inprocess(specs, ends, segment_sink):
    shard_set = _ShardSet(specs)
    shard_set.refuse(_foreign_names(shard_set.actor_names()))
    merge_s = 0.0
    for events, segments in shard_set.cells(ends):
        merge_s += _timed_sink(segment_sink, segments)
    return shard_set.finalize(), events, {"merge_stage_s": merge_s}


def _assign_shards(
    specs: Sequence[ShardSpec], workers: int
) -> List[List[ShardSpec]]:
    """Deal shards out to workers round-robin in shard-id order.

    Each worker's shard list is in ascending shard-id order (the execution
    order inside the worker).  Results do not depend on the placement: the
    differentials hold every worker count to the single-process run.
    """
    ordered = sorted(specs, key=lambda s: s.shard_id)
    return [ordered[widx::workers] for widx in range(workers)]


class _Pipes:
    """The parent's ends of the worker pipes, with frame accounting.

    Counts ``ipc_bytes`` / ``ipc_messages`` in both directions, and turns a
    pipe that breaks or hits EOF into an immediate error naming the dead
    worker and its shards.
    """

    def __init__(self, conns: Sequence[Any], procs: Sequence[Any], worker_shards: Sequence[List[int]]) -> None:
        self.conns = list(conns)
        self._procs = list(procs)
        #: worker index → the ids of the shards it runs
        self._worker_shards = list(worker_shards)
        self.ipc_bytes = 0
        self.ipc_messages = 0

    def send(self, widx: int, payload: Any) -> None:
        frame = encode_wire(payload)
        try:
            self.conns[widx].send_bytes(frame)
        except (BrokenPipeError, OSError) as exc:
            self._raise_dead(widx, exc)
        self.ipc_bytes += len(frame)
        self.ipc_messages += 1

    def recv(self, widx: int) -> Any:
        try:
            frame = self.conns[widx].recv_bytes()
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


def _stream_cells(pipes: _Pipes, cell_count: int, segment_sink) -> Tuple[Dict[int, int], float, float]:
    """Absorb every worker's cell frames as they arrive; sink each complete cell.

    Cell ``k`` goes to the sink once every worker's cell-``k`` frame is in,
    so the sink sees the in-process engine's sequence.  A sink call counts
    as overlapped when, as it returns, some worker still has no frame ready:
    that worker was running ahead meanwhile.  Returns ``(events,
    merge_stage_s, merge_overlap_s)``.
    """
    streaming = {conn: widx for widx, conn in enumerate(pipes.conns)}
    received = [0] * len(pipes.conns)
    cells: Dict[int, Dict[int, Any]] = {}
    events: Dict[int, int] = {}
    merge_s = overlap_s = 0.0
    applied = 0
    while applied < cell_count:
        for conn in mp_connection.wait(list(streaming)):
            widx = streaming[conn]
            _, worker_events, segments = pipes.recv(widx)
            events.update(worker_events)
            cells.setdefault(received[widx], {}).update(segments)
            received[widx] += 1
            if received[widx] == cell_count:
                del streaming[conn]
        while applied < min(received):
            spent = _timed_sink(segment_sink, cells.pop(applied))
            applied += 1
            merge_s += spent
            if spent and len(mp_connection.wait(list(streaming), timeout=0)) < len(streaming):
                overlap_s += spent
    return events, merge_s, overlap_s


def _run_multiprocess(specs, ends, workers, segment_sink):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])

    assignment = _assign_shards(specs, workers)

    conns = []
    procs = []
    try:
        for worker_specs in assignment:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, worker_specs, ends, conns + [parent_conn])
            )
            proc.daemon = True
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        worker_shards = [[spec.shard_id for spec in worker_specs] for worker_specs in assignment]
        pipes = _Pipes(conns, procs, worker_shards)

        names: Dict[int, Set[str]] = {}
        for widx in range(workers):
            _, worker_names = pipes.recv(widx)
            names.update(worker_names)
        foreign = _foreign_names(names)
        for widx, shard_ids in enumerate(worker_shards):
            pipes.send(widx, {sid: foreign[sid] for sid in shard_ids})

        events, merge_s, overlap_s = _stream_cells(pipes, len(ends) + 1, segment_sink)

        results: Dict[int, Any] = {}
        for widx in range(workers):
            _, worker_results = pipes.recv(widx)
            results.update(worker_results)
        stats = {
            "ipc_bytes": pipes.ipc_bytes,
            "ipc_messages": pipes.ipc_messages,
            "merge_stage_s": merge_s,
            "merge_overlap_s": overlap_s,
        }
        return results, events, stats
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)

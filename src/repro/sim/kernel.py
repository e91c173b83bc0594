"""Discrete-event simulation kernel.

The kernel is the substrate every protocol in this repository runs on.  It
replaces the paper's physical testbed (a 10 Gbps cluster and Amazon EC2
regions) with a deterministic, seedable event loop: protocol actors exchange
messages and set timers, and the kernel advances a virtual clock from event to
event.

Design notes
------------
* Events are kept in a binary heap of plain ``(time, priority, seq)`` keyed
  tuples.  The monotonically increasing ``seq`` makes the ordering of
  simultaneous events deterministic, which in turn makes every experiment
  reproducible from its seed.
* The kernel knows nothing about networks, disks or protocols; those are
  layered on top (see :mod:`repro.sim.network` and :mod:`repro.sim.disk`).
* Time is a ``float`` in **seconds**.

Performance notes
-----------------
Every simulated message translates into at least one kernel event, so the
events/second of this module caps the throughput of the whole reproduction
(``sim.kernel.events_per_host_s`` in the ledger benchmark).  The hot path
therefore avoids the conveniences the original implementation used:

* :class:`Event` is a ``__slots__`` class, not an ``order=True`` dataclass;
  heap entries are ``(time, priority, seq, event)`` tuples so heap sifting
  compares C-level tuples instead of calling a generated ``__lt__``.
* :meth:`Simulator.call_later` is the keyword-free fast path used by timers:
  it never allocates a per-call ``kwargs`` dict.  The internal
  :meth:`Simulator._post` goes further for fire-and-forget work (message
  delivery, durability callbacks): its heap entries are plain
  ``(time, priority, seq, callback, args)`` tuples with no Event or handle
  at all.
* There is one run loop.  It peeks/pops inline with hoisted locals and
  carries no branch for event caps; ``run(max_events=...)`` takes a short
  stepped path (``next_event_time`` + ``step``) that executes the same
  sequence one event at a time.
* Cancelled events are removed lazily; when more than half the queue is dead
  the heap is compacted in place, so long runs with many cancelled timers do
  not degrade.

Observable semantics are anchored twice: the firing order of a random
schedule / cancel / priority program is held to the plain ``heapq`` of
``tests/reference/kernel.py``, and the delivery logs of whole deployments to
the exact values committed in ``tests/golden/exact.json`` (a PR that moves a
golden says which modelled behaviour changed).
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

__all__ = [
    "Event",
    "EventHandle",
    "Simulator",
    "gc_paused",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the simulation is used incorrectly.

    Examples include scheduling an event in the past or running a simulator
    backwards.
    """


class gc_paused:
    """Pause CPython's cyclic collector around a run loop, then restore it.

    A run allocates millions of acyclic objects (heap entries, messages,
    decision logs) and no reference cycles, so collections only re-traverse
    a growing live heap.  Exit restores the caller's collector state,
    exception or not; with the collector already off this is a no-op, so
    nested runs and callers managing GC themselves are untouched.  Hot-path
    code must not create cycles: they would outlive the outermost run.

    A finished deployment *is* cyclic (actors ↔ environment), and a caller
    running point after point may allocate too little in between for the
    collector's thresholds to fire: every :attr:`BACKLOG` objects that
    outlived their pause buy one full collection at the next entry, when the
    previous deployment is usually dropped and the heap still small.
    """

    __slots__ = ("_was_enabled",)
    BACKLOG = 100_000
    _backlog = 0

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        if self._was_enabled:
            if gc_paused._backlog >= gc_paused.BACKLOG:
                gc_paused._backlog = 0
                gc.collect()
            gc.disable()

    def __exit__(self, *exc_info: Any) -> None:
        if self._was_enabled:
            gc_paused._backlog += gc.get_count()[0]
            gc.enable()


class Event:
    """A single scheduled callback.

    Events are ordered by the ``(time, priority, seq)`` prefix of the heap
    tuple they ride in, which is the only place those three are kept; the
    callback and its arguments do not participate in ordering.  ``kwargs`` is
    ``None`` (not an empty dict) for events scheduled through the fast path.
    """

    __slots__ = ("callback", "args", "kwargs", "cancelled", "fired")

    def __init__(
        self,
        callback: Callable[..., None],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False


#: Heap entry type: ``(time, priority, seq, event)``.
_Entry = Tuple[float, int, int, Event]


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule` allowing cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an event that already fired or was already cancelled is a
        no-op; this mirrors the semantics of ``threading.Timer.cancel``.
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            # A fired event no longer sits in the queue; counting it toward
            # the compaction trigger would cause spurious full-heap scans
            # (e.g. Actor.crash cancelling long-fired one-shot timers).
            if not event.fired:
                self._sim._note_cancelled()


class Simulator:
    """Deterministic discrete-event simulator; the clock starts at 0.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> fired
    ['hello']
    >>> sim.now
    1.5
    """

    #: Minimum number of cancellations before a compaction is considered.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_Entry] = []
        self._seq = 0
        self._cancelled = 0
        self._processed = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful in tests and stats)."""
        return self._processed

    # ------------------------------------------------------------- scheduling
    def _post(self, delay: float, callback: Callable[..., None], args: tuple = ()) -> None:
        """Cheapest scheduling path: no handle, no Event, pre-built args tuple.

        Used by fire-and-forget hot paths (message delivery, durability
        callbacks) that never cancel: the heap entry is a plain
        ``(time, 0, seq, callback, args)`` tuple, skipping the ``*args``
        re-pack, the :class:`Event` and the :class:`EventHandle` of
        :meth:`call_later`.  Ordering is identical — the heap only ever
        compares the unique ``(time, priority, seq)`` prefix.  Negative delays
        are a caller bug on these internal paths, but are still rejected to
        keep the kernel invariant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, 0, seq, callback, args))

    def call_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Fast-path :meth:`schedule`: positional arguments only, priority 0.

        Identical semantics to ``schedule(delay, callback, *args)`` but never
        allocates a keyword-argument dict; this is the entry point the
        network, disk and timer layers use for every simulated message.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(callback, args)
        heappush(self._queue, (time, 0, seq, event))
        return EventHandle(event, self)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now.

        A negative delay raises :class:`SimulationError`; a zero delay runs the
        callback at the current time but strictly after the currently running
        event (events never preempt each other).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(callback, args, kwargs or None)
        heappush(self._queue, (time, priority, seq, event))
        return EventHandle(event, self)

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue is
        empty (cancelled events are skipped silently).
        """
        queue = self._queue
        while queue:
            entry = heappop(queue)
            head = entry[3]
            if head.__class__ is Event:
                if head.cancelled:
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                head.fired = True
                callback, args, kwargs = head.callback, head.args, head.kwargs or {}
            else:
                callback, args, kwargs = head, entry[4], {}
            self._now = entry[0]
            self._processed += 1
            callback(*args, **kwargs)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop (cyclic GC paused meanwhile, see :class:`gc_paused`).

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events at exactly
            ``until`` are executed.  ``None`` means run until the queue drains.
            A time before :attr:`now` raises :class:`SimulationError`: the
            clock never moves backwards.
        max_events:
            Safety valve for tests: stop after this many events.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} which is before now={self._now}"
            )
        with gc_paused():
            if max_events is None:
                return self._run_default(until)
            return self._run_stepped(until, max_events)

    def _run_default(self, until: Optional[float]) -> float:
        """The run loop: no event cap, no branch for one.

        ``until`` is hoisted into a plain float bound (``inf`` when absent) so
        the per-event check is a single comparison.
        """
        queue = self._queue
        pop = heappop
        limit = inf if until is None else until
        while queue:
            entry = queue[0]
            head = entry[3]
            # Two heap-entry layouts: (time, prio, seq, Event) from the
            # public schedulers, (time, prio, seq, callback, args) from
            # the fire-and-forget _post path.
            if head.__class__ is Event:
                if head.cancelled:
                    pop(queue)
                    if self._cancelled:
                        self._cancelled -= 1
                    continue
                time = entry[0]
                if time > limit:
                    self._now = until
                    break
                pop(queue)
                self._now = time
                self._processed += 1
                head.fired = True
                kwargs = head.kwargs
                if kwargs is None:
                    head.callback(*head.args)
                else:
                    head.callback(*head.args, **kwargs)
            else:
                time = entry[0]
                if time > limit:
                    self._now = until
                    break
                pop(queue)
                self._now = time
                self._processed += 1
                head(*entry[4])
        else:
            if until is not None and self._now < until:
                self._now = until
        return self._now

    def _run_stepped(self, until: Optional[float], max_events: Optional[int]) -> float:
        """:meth:`_run_default` one :meth:`step` at a time, counting the steps.

        Taken when an event cap is set; same events, same clock,
        same stop conditions as the run loop.
        """
        executed = 0
        while True:
            time = self.next_event_time()
            if time is None:
                break
            if until is not None and time > until:
                self._now = until
                return until
            self.step()
            executed += 1
            if max_events is not None and executed >= max_events:
                return self._now
        if until is not None and self._now < until:
            self._now = until
        return self._now

    # ----------------------------------------------------------- time windows
    def next_event_time(self) -> Optional[float]:
        """Firing time of the earliest live pending event (``None`` if drained).

        Cancelled entries found at the heap top are popped eagerly, so the
        answer is exact.  Used by window-based execution to decide whether a
        shard has any work left inside the current window.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            head = entry[3]
            if head.__class__ is Event and head.cancelled:
                heappop(queue)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            return entry[0]
        return None

    def run_window(self, end: float) -> int:
        """Execute every event with ``time <= end`` and land the clock on ``end``.

        The building block of conservative parallel execution (see
        :mod:`repro.sim.parallel`): a shard repeatedly runs one window, then
        ships its decision-stream segments at the barrier.  Unlike a
        bare ``run(until=end)`` call, ``run_window`` enforces that windows are
        monotonic (``end`` must not be in the past) and guarantees the clock
        is exactly ``end`` afterwards, so every shard arrives at the barrier
        with an identical notion of time.

        Returns the number of events executed inside the window.
        """
        if end < self._now:
            raise SimulationError(
                f"window end {end} is before the current time {self._now}"
            )
        before = self._processed
        self.run(until=end)
        self._now = end
        return self._processed - before

    # ----------------------------------------------------------- compaction
    def _note_cancelled(self) -> None:
        """Record a cancellation; compact the heap when mostly dead.

        Cancelled events are normally skipped lazily when they reach the heap
        top.  A workload that arms and cancels many long-dated timers (e.g.
        per-message retransmission timers) would otherwise accumulate dead
        entries, inflating every push/pop; once dead entries plausibly exceed
        half the queue the heap is rebuilt in place.  The counter may
        overcount (cancelling an already-fired event is a no-op on the queue)
        which at worst triggers a harmless extra compaction.
        """
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place: run() holds a ref)."""
        queue = self._queue
        live = [
            entry
            for entry in queue
            if entry[3].__class__ is not Event or not entry[3].cancelled
        ]
        if len(live) != len(queue):
            queue[:] = live
            heapify(queue)
        self._cancelled = 0

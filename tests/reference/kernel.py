"""The kernel as plain rules: a ``heapq`` of ``(time, seq, ...)``.

Events fire in time order; at one time, the one scheduled first (``seq``).
A cancelled event never fires.  ``run(until)`` fires everything due at or before
``until`` and leaves the clock there — the clock never moves backwards.
``repro.sim.kernel.Simulator`` must fire the same program the same way
through its two scheduling lanes (``call_later`` / ``_post``), two heap-entry
layouts, lazy cancellation and compaction.
"""

from __future__ import annotations

import heapq

from repro.sim.kernel import SimulationError


class _Handle:
    cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.processed_events = 0

    def call_later(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError("cannot schedule an event in the past")
        handle = _Handle()
        heapq.heappush(self.heap, (self.now + delay, self.seq, handle, callback, args))
        self.seq += 1
        return handle

    def _post(self, delay, callback, args=()):
        self.call_later(delay, callback, *args)

    def run(self, until=None):
        if until is not None and until < self.now:
            raise SimulationError("the clock never moves backwards")
        while self.heap and (until is None or self.heap[0][0] <= until):
            time, _, handle, callback, args = heapq.heappop(self.heap)
            if not handle.cancelled:
                self.now = time
                self.processed_events += 1
                callback(*args)
        if until is not None:
            self.now = until
        return self.now

"""The throughput tracker as plain rules: one ``(time, units)`` tuple per record.

Queries sum the records' units in record order.  ``ThroughputTracker`` must
answer every query with the same value *and type* while keeping one sample
per simulated instant — a time, the units object and a repeat count.
"""

from __future__ import annotations

import math
from collections import defaultdict


class TupleTracker:
    """Reference tracker: one ``(time, units)`` tuple per record."""

    def __init__(self, clock, bucket_seconds):
        self._clock = clock
        self._bucket = bucket_seconds
        self._events = []

    def record(self, units=1.0):
        self._events.append((self._clock(), units))

    @property
    def total(self):
        return sum(u for _, u in self._events)

    def total_between(self, start, end):
        return sum(u for t, u in self._events if start <= t < end)

    def rate(self, start, end):
        if end <= start:
            return 0.0
        return self.total_between(start, end) / (end - start)

    def timeline(self, start, end):
        if end <= start:
            return []
        buckets = defaultdict(float)
        for t, u in self._events:
            if start <= t < end:
                buckets[int((t - start) // self._bucket)] += u
        n_buckets = int(math.ceil((end - start) / self._bucket))
        return [
            (start + i * self._bucket, buckets.get(i, 0.0) / self._bucket)
            for i in range(n_buckets)
        ]

    def reset(self):
        self._events.clear()

"""The state machine of one shared log.

A dLog server keeps the most recent appends in an in-memory cache (200 MB in
the prototype — Section 7.3) and writes data to disk either synchronously or
asynchronously.  A ``trim`` flushes the cache up to the trim position and
starts a new on-disk log file.

:class:`SharedLog` models exactly that: appended entries carry their size,
the cache is bounded, and the on-disk segments record how many bytes were
flushed where — enough to account for device usage without holding real
payloads in memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["LogEntry", "LogSegment", "SharedLog"]

#: Default in-memory cache size (Section 7.3).
DEFAULT_CACHE_BYTES = 200 * 1024 * 1024


@dataclass(frozen=True)
class LogEntry:
    """One appended record."""

    position: int
    size_bytes: int
    payload: object = None


@dataclass
class LogSegment:
    """An on-disk log file created when the log is trimmed."""

    first_position: int
    last_position: int
    bytes: int


class SharedLog:
    """Append-only log with a bounded in-memory cache and trim support."""

    def __init__(self, log_id: int, cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if cache_bytes <= 0:
            raise ValueError("cache_bytes must be positive")
        self.log_id = log_id
        self.cache_bytes = cache_bytes
        self._next_position = 0
        self._cache: "OrderedDict[int, LogEntry]" = OrderedDict()
        self._cache_size = 0
        self._trimmed_up_to = -1
        self._segments: List[LogSegment] = []

    # ---------------------------------------------------------------- append
    def append(self, size_bytes: int, payload: object = None) -> int:
        """Append one record; returns the position it was stored at (Table 2)."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        position = self._next_position
        self._next_position += 1
        entry = LogEntry(position=position, size_bytes=size_bytes, payload=payload)
        self._cache[position] = entry
        self._cache_size += size_bytes
        self._evict_if_needed()
        return position

    def _evict_if_needed(self) -> None:
        while self._cache_size > self.cache_bytes and self._cache:
            _, evicted = self._cache.popitem(last=False)
            self._cache_size -= evicted.size_bytes

    # ------------------------------------------------------------------ trim
    def trim(self, position: int) -> LogSegment:
        """Trim the log up to ``position`` (Table 2), creating a new segment."""
        flushed = [e for p, e in self._cache.items() if p <= position]
        for entry in flushed:
            del self._cache[entry.position]
            self._cache_size -= entry.size_bytes
        segment = LogSegment(
            first_position=self._trimmed_up_to + 1,
            last_position=position,
            bytes=sum(e.size_bytes for e in flushed),
        )
        self._segments.append(segment)
        self._trimmed_up_to = max(self._trimmed_up_to, position)
        return segment

    # ------------------------------------------------------------ inspection
    @property
    def next_position(self) -> int:
        """Position the next append will receive."""
        return self._next_position

    @property
    def cached_entries(self) -> int:
        """Records currently held in the in-memory cache."""
        return len(self._cache)

    @property
    def cached_bytes(self) -> int:
        """Bytes currently held in the in-memory cache."""
        return self._cache_size

    @property
    def trimmed_up_to(self) -> int:
        """Highest position removed by a trim (-1 when never trimmed)."""
        return self._trimmed_up_to

    @property
    def segments(self) -> List[LogSegment]:
        """On-disk segments created by trims, oldest first."""
        return list(self._segments)

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict:
        """A copy of the log state for checkpointing."""
        return {
            "log_id": self.log_id,
            "next_position": self._next_position,
            "trimmed_up_to": self._trimmed_up_to,
            "cache": dict(self._cache),
            "segments": list(self._segments),
        }

    def restore(self, snapshot: Dict) -> None:
        """Replace the log state with a checkpoint snapshot."""
        self._next_position = snapshot["next_position"]
        self._trimmed_up_to = snapshot["trimmed_up_to"]
        self._cache = OrderedDict(sorted(snapshot["cache"].items()))
        self._cache_size = sum(e.size_bytes for e in self._cache.values())
        self._segments = list(snapshot["segments"])

"""In-memory key-value state machine of one MRP-Store partition.

Every replica of a partition keeps its database entries in an in-memory
ordered structure (the prototype uses an in-memory tree — Section 7.2).
:class:`KeyValueStore` provides the Table 1 operations the workloads issue
(``read``, ``scan``, ``update``, ``insert``) plus the size accounting the
checkpointer needs.  Values are stored as opaque byte counts
rather than real byte arrays so that multi-gigabyte datasets remain cheap to
simulate while wire/disk accounting stays faithful.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["KeyValueStore", "StoredValue"]


@dataclass(frozen=True)
class StoredValue:
    """A stored entry: its (possibly synthetic) value and its size."""

    value: object
    size_bytes: int


class KeyValueStore:
    """Sorted in-memory map from string keys to values."""

    def __init__(self) -> None:
        self._data: Dict[str, StoredValue] = {}
        self._sorted_keys: List[str] = []
        self._bytes = 0

    # ------------------------------------------------------------ operations
    def read(self, key: str) -> Optional[StoredValue]:
        """Return the entry of ``key`` if it exists (Table 1: ``read(k)``)."""
        return self._data.get(key)

    def scan(self, start_key: str, end_key: str, limit: Optional[int] = None) -> List[Tuple[str, StoredValue]]:
        """Entries with keys in ``[start_key, end_key]`` (Table 1: ``scan``)."""
        if end_key < start_key:
            start_key, end_key = end_key, start_key
        lo = bisect.bisect_left(self._sorted_keys, start_key)
        hi = bisect.bisect_right(self._sorted_keys, end_key)
        keys = self._sorted_keys[lo:hi]
        if limit is not None:
            keys = keys[:limit]
        return [(k, self._data[k]) for k in keys]

    def update(self, key: str, value: object, size_bytes: int) -> bool:
        """Update an existing entry; returns ``False`` when the key is absent."""
        if key not in self._data:
            return False
        self._bytes += size_bytes - self._data[key].size_bytes
        self._data[key] = StoredValue(value=value, size_bytes=size_bytes)
        return True

    def insert(self, key: str, value: object, size_bytes: int) -> bool:
        """Insert a new entry (overwrites like an upsert if it already exists)."""
        if key in self._data:
            self._bytes += size_bytes - self._data[key].size_bytes
        else:
            bisect.insort(self._sorted_keys, key)
            self._bytes += size_bytes
        self._data[key] = StoredValue(value=value, size_bytes=size_bytes)
        return True

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._data)

    @property
    def size_bytes(self) -> int:
        """Total bytes of stored values (used for checkpoint sizing)."""
        return self._bytes

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, StoredValue]:
        """A copy of the whole store, suitable for a checkpoint."""
        return dict(self._data)

    def restore(self, snapshot: Dict[str, StoredValue]) -> None:
        """Replace the store contents with a checkpoint snapshot."""
        self._data = dict(snapshot)
        self._sorted_keys = sorted(self._data)
        self._bytes = sum(v.size_bytes for v in self._data.values())

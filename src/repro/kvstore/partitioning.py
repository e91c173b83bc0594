"""Key partitioning for MRP-Store.

MRP-Store divides its key space into partitions, each replicated by one
multicast group/ring (Section 6.1).  Applications choose between hash and
range partitioning; clients must know the partitioning scheme to address the
right group, and the scheme is published in the coordination service so every
process can read it (Section 7.2).

* :class:`HashPartitioner` spreads keys uniformly; range scans must be sent to
  every partition.
* :class:`RangePartitioner` assigns contiguous key ranges; range scans only go
  to the partitions that may hold keys of the interval.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

__all__ = ["Partitioner", "HashPartitioner", "RangePartitioner"]


class Partitioner:
    """Maps keys (strings) to multicast group ids."""

    def group_for_key(self, key: str) -> int:
        """The group responsible for ``key``."""
        raise NotImplementedError

    def groups_for_range(self, start_key: str, end_key: str) -> List[int]:
        """Groups that may hold keys in ``[start_key, end_key]``."""
        raise NotImplementedError

    def groups(self) -> List[int]:
        """All group ids, ascending."""
        raise NotImplementedError

    @property
    def partition_count(self) -> int:
        """Number of partitions."""
        return len(self.groups())


class HashPartitioner(Partitioner):
    """Hash partitioning: uniform spread, scans hit every partition."""

    def __init__(self, group_ids: Sequence[int]) -> None:
        if not group_ids:
            raise ValueError("need at least one group")
        self._groups = sorted(set(group_ids))
        #: key -> group: one md5 per distinct key, not one per request (as
        #: large as the keyspace asked about)
        self._group_of: Dict[str, int] = {}

    def group_for_key(self, key: str) -> int:
        group = self._group_of.get(key)
        if group is None:
            digest = hashlib.md5(key.encode()).digest()
            index = int.from_bytes(digest[:4], "big") % len(self._groups)
            group = self._group_of[key] = self._groups[index]
        return group

    def groups_for_range(self, start_key: str, end_key: str) -> List[int]:
        # Hash partitioning cannot narrow a range: every partition may hold
        # keys of the interval (Section 6.1).
        return list(self._groups)

    def groups(self) -> List[int]:
        return list(self._groups)


class RangePartitioner(Partitioner):
    """Range partitioning over sorted split points.

    ``splits`` are the exclusive upper bounds of each partition except the
    last; with groups ``[10, 11, 12]`` and splits ``["g", "p"]``, keys below
    ``"g"`` go to group 10, keys in ``["g", "p")`` to group 11, the rest to
    group 12.
    """

    def __init__(self, group_ids: Sequence[int], splits: Sequence[str]) -> None:
        group_ids = list(group_ids)
        if not group_ids:
            raise ValueError("need at least one group")
        if len(splits) != len(group_ids) - 1:
            raise ValueError("need exactly len(group_ids) - 1 split points")
        if list(splits) != sorted(splits):
            raise ValueError("split points must be sorted")
        self._groups = group_ids
        self._splits = list(splits)

    def group_for_key(self, key: str) -> int:
        index = bisect.bisect_right(self._splits, key)
        return self._groups[index]

    def groups_for_range(self, start_key: str, end_key: str) -> List[int]:
        if end_key < start_key:
            start_key, end_key = end_key, start_key
        first = bisect.bisect_right(self._splits, start_key)
        last = bisect.bisect_right(self._splits, end_key)
        return self._groups[first:last + 1]

    def groups(self) -> List[int]:
        return list(self._groups)

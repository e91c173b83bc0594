"""Key partitioning for MRP-Store.

MRP-Store divides its key space into partitions, each replicated by one
multicast group/ring (Section 6.1).  Clients must know the partitioning
scheme to address the right group (Section 7.2).  The runners use
:class:`HashPartitioner`: keys spread uniformly and range scans go to every
partition.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

__all__ = ["Partitioner", "HashPartitioner"]


class Partitioner:
    """Maps keys (strings) to multicast group ids."""

    def group_for_key(self, key: str) -> int:
        """The group responsible for ``key``."""
        raise NotImplementedError

    def groups_for_range(self, start_key: str, end_key: str) -> List[int]:
        """Groups that may hold keys in ``[start_key, end_key]``."""
        raise NotImplementedError


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

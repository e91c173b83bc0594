"""Pre-allocated in-memory acceptor buffer.

Acceptors using in-memory storage in the paper have access to pre-allocated
buffers with 15 000 slots of 32 KB each, allocated outside the Java heap so
garbage collection does not disturb performance (Section 7.1).  The simulated
equivalent is a bounded, slot-based store keyed by consensus instance: it
enforces the slot-count and slot-size limits and exposes occupancy so that
tests can exercise the bound and the trimming interplay.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = ["SlotBuffer", "SlotFullError", "SlotEntry"]


class SlotFullError(RuntimeError):
    """Raised when the buffer has no free slot for a new instance.

    In the real system the acceptor would block the ring until trimming frees
    slots; protocol code catches this to apply back-pressure.
    """


@dataclass(slots=True)
class SlotEntry:
    """One stored consensus instance value.

    ``slots=True``: one is allocated per decided instance on the ring path.
    """

    instance: int
    value: Any
    size_bytes: int


class SlotBuffer:
    """Bounded in-memory store of consensus-instance values.

    Parameters
    ----------
    slot_count:
        Maximum number of instances held at once (paper default: 15 000).
    slot_size_bytes:
        Maximum size of a single value (paper default: 32 KB).
    """

    DEFAULT_SLOTS = 15_000
    DEFAULT_SLOT_SIZE = 32 * 1024

    def __init__(
        self,
        slot_count: int = DEFAULT_SLOTS,
        slot_size_bytes: int = DEFAULT_SLOT_SIZE,
    ) -> None:
        if slot_count <= 0:
            raise ValueError("slot_count must be positive")
        if slot_size_bytes <= 0:
            raise ValueError("slot_size_bytes must be positive")
        self.slot_count = slot_count
        self.slot_size_bytes = slot_size_bytes
        self._slots: "OrderedDict[int, SlotEntry]" = OrderedDict()

    # ------------------------------------------------------------------ put
    def offer(self, instance: int, value: Any, size_bytes: int) -> bool:
        """Store ``value`` for ``instance`` if a slot is free.

        Returns ``False`` — and stores nothing — when the buffer is full and
        the instance is not already present.  The per-decision acceptor path
        asks this way: an untrimmed run is past the bound for most of its
        length, and a full buffer is its steady state, not an error.

        Raises
        ------
        ValueError
            If the value exceeds the slot size.
        """
        if size_bytes > self.slot_size_bytes:
            raise ValueError(
                f"value of {size_bytes} bytes exceeds slot size {self.slot_size_bytes}"
            )
        slots = self._slots
        if len(slots) >= self.slot_count and instance not in slots:
            return False
        slots[instance] = SlotEntry(instance, value, size_bytes)
        return True

    def put(self, instance: int, value: Any, size_bytes: int) -> None:
        """Store ``value`` for ``instance``.

        Raises
        ------
        SlotFullError
            If the buffer is full and the instance is not already present.
        ValueError
            If the value exceeds the slot size.
        """
        if not self.offer(instance, value, size_bytes):
            raise SlotFullError(
                f"buffer full ({self.slot_count} slots); trim before storing instance {instance}"
            )

    # ------------------------------------------------------------------ get
    def get(self, instance: int) -> Optional[SlotEntry]:
        """Return the entry for ``instance`` or ``None`` if absent."""
        return self._slots.get(instance)

    def __contains__(self, instance: int) -> bool:
        return instance in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def instances(self) -> Iterator[int]:
        """Iterate over stored instance numbers in insertion order."""
        return iter(self._slots.keys())

    @property
    def occupancy(self) -> float:
        """Fraction of slots in use."""
        return len(self._slots) / self.slot_count

    @property
    def bytes_used(self) -> int:
        """Total bytes of stored values."""
        return sum(e.size_bytes for e in self._slots.values())

    # ----------------------------------------------------------------- trim
    def trim(self, up_to_instance: int) -> int:
        """Remove every entry with instance number ``<= up_to_instance``.

        Returns the number of entries removed.  This is how the acceptor log
        trimming of Section 5 frees space.
        """
        to_remove = [i for i in self._slots if i <= up_to_instance]
        for i in to_remove:
            del self._slots[i]
        return len(to_remove)

    def clear(self) -> None:
        """Drop every entry (acceptor crash with in-memory storage)."""
        self._slots.clear()

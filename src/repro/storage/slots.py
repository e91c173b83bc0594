"""Pre-allocated in-memory acceptor buffer.

Acceptors using in-memory storage in the paper have access to pre-allocated
buffers with 15 000 slots of 32 KB each, allocated outside the Java heap so
garbage collection does not disturb performance (Section 7.1).  The simulated
equivalent is a bounded, slot-based store keyed by consensus instance: it
enforces the slot-count and slot-size limits and exposes occupancy so that
tests can exercise the bound and the trimming interplay.  An occupied slot is
one flag on the :class:`~repro.storage.slab.InstanceSlab` when it holds the
value the acceptor voted for, a :class:`SlotEntry` of its own otherwise.
"""

from __future__ import annotations

import sys
from typing import Any, Iterator, Optional

from .slab import IN_SLOT, InstanceSlab, SlotEntry

__all__ = ["SlotBuffer", "SlotFullError", "SlotEntry"]


class SlotFullError(RuntimeError):
    """Raised when the buffer has no free slot for a new instance.

    In the real system the acceptor would block the ring until trimming frees
    slots; protocol code catches this to apply back-pressure.
    """


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
        #: the entries' store; an acceptor points this at its log's slab
        self.slab = InstanceSlab()

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
        slab = self.slab
        if slab.slots_used >= self.slot_count and (
            instance > slab.slot_top or not slab.has(instance, IN_SLOT)
        ):
            return False  # (no slot is held above slot_top: nothing to look up)
        index = instance - slab.base
        flags = slab.flags
        if (
            0 <= index < len(flags)
            and slab.values[index] is value
            and value is not None
            and not flags[index] & IN_SLOT
            and value.size_bytes == size_bytes
        ):
            # A decision of a steady ring: the value is the vote the acceptor
            # already holds, so one flag occupies the slot.
            flags[index] |= IN_SLOT
            slab.slots_used += 1
        else:
            held = slab.get(instance, IN_SLOT)
            if held is not None:
                slab.slot_bytes -= held.size_bytes
            shared = slab.is_vote(instance, value) and value.size_bytes == size_bytes
            entry = SlotEntry(instance, value, size_bytes)
            slab.slots_used += slab.attach(instance, IN_SLOT, entry, shared)
        slab.slot_bytes += size_bytes
        if instance > slab.slot_top:
            slab.slot_top = instance
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
        return self.slab.get(instance, IN_SLOT)

    def __contains__(self, instance: int) -> bool:
        return self.slab.has(instance, IN_SLOT)

    def __len__(self) -> int:
        return self.slab.slots_used

    def instances(self) -> Iterator[int]:
        """Iterate over stored instance numbers in instance order."""
        return iter(self.slab.instances(IN_SLOT))

    @property
    def occupancy(self) -> float:
        """Fraction of slots in use."""
        return self.slab.slots_used / self.slot_count

    @property
    def bytes_used(self) -> int:
        """Total bytes of stored values."""
        return self.slab.slot_bytes

    # ----------------------------------------------------------------- trim
    def trim(self, up_to_instance: int) -> int:
        """Remove every entry with instance number ``<= up_to_instance``.

        Returns the number of entries removed.  This is how the acceptor log
        trimming of Section 5 frees space.
        """
        return self.slab.drop(IN_SLOT, up_to_instance)

    def clear(self) -> None:
        """Drop every entry (acceptor crash with in-memory storage)."""
        self.slab.drop(IN_SLOT, sys.maxsize)

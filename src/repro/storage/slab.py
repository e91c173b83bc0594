"""Columnar per-ring instance store.

The paper's acceptors keep consensus state in pre-allocated buffers *outside
the Java heap* so that per-instance state never costs the collector anything
(Section 7.1) and is reclaimed by the trim protocol (Section 5).  The
simulated equivalent is :class:`InstanceSlab`: dense **columns** indexed by
``instance - base`` — accepted value, ballot, one flag byte, 17 bytes per
instance — instead of a dict of objects per holder.  One slab per acceptor
per ring serves three views of an instance: the **vote** (promised ballot,
accepted ballot, accepted value — :class:`~repro.paxos.acceptor.AcceptorState`)
owns the columns; the **log record** (:class:`~repro.storage.wal.WriteAheadLog`)
and the **decision** (``AcceptorState.record_decision``) are one flag bit each.

In a steady run both are *the vote*: the record logs the ballot and value
just voted, the decision is the voted value.  A view whose content is not the
vote in the columns — a decision for a value this acceptor did not vote for,
a record surviving the crash that wiped the votes, whatever a log on a slab
of its own is handed — keeps an object of its own in that view's side dict.
Readers get :class:`LogRecord` objects built on demand.  Holes are padded: a
skipped instance costs what every peer acceptor pays for it.

Invariants (docs/ARCHITECTURE.md, "the columnar instance slab"): ``base`` is
one past the highest trimmed instance; the columns have equal length and
``next == base + len(flags)``; a view flag without a side entry means the
vote flag is set and the view's content is exactly that vote; ``values[i]``
is ``None`` and ``ballots[i]`` -1 wherever the vote flag is clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["InstanceSlab", "LogRecord", "VOTED", "DECIDED", "LOGGED"]

#: the acceptor holds state of its own for the instance: a vote, or the
#: promise a first vote was refused under (accepted ballot -1)
VOTED = 0x01
#: the decision is known
DECIDED = 0x02
#: the write-ahead log holds a record
LOGGED = 0x04

#: ``bytes.translate`` tables: 1 where the flag is set / the flag cleared.
_FLAGS = (VOTED, DECIDED, LOGGED)
_HAS = {flag: bytes(1 if byte & flag else 0 for byte in range(256)) for flag in _FLAGS}
_CLEAR = {flag: bytes(byte & ~flag for byte in range(256)) for flag in (*_FLAGS, VOTED | DECIDED)}


@dataclass(slots=True)
class LogRecord:
    """One durable record: the acceptor's vote for one consensus instance."""

    instance: int
    ballot: int
    value: Any
    size_bytes: int


class InstanceSlab:
    """Dense per-instance columns shared by an acceptor and its log."""

    __slots__ = (
        "base", "values", "ballots", "flags", "decisions", "records", "sides", "next", "unlogged",
    )

    def __init__(self) -> None:
        #: instance number of column index 0 (everything below is trimmed)
        self.base = 0
        #: accepted value (``None`` without a vote)
        self.values: List[Any] = []
        #: the ballot promised *and* accepted — one int, as after every
        #: accepted vote — or ``(promised, accepted)`` where they differ (a
        #: later Phase 1A, a refused first vote); -1 without state
        self.ballots: List[Any] = []
        self.flags = bytearray()
        #: per view, ``instance -> content`` that is not the vote in the columns
        self.decisions: Dict[int, Any] = {}
        self.records: Dict[int, LogRecord] = {}
        self.sides = {DECIDED: self.decisions, LOGGED: self.records}
        #: ``base + len(flags)``: where a steady-state vote appends
        self.next = 0
        #: the instance whose vote the acceptor has just appended and is about
        #: to log — lets ``WriteAheadLog.append`` set its flag without
        #: re-deriving that the record is that vote; -1 at any other time
        self.unlogged = -1

    # --------------------------------------------------------------- columns
    def _reach(self, instance: int) -> int:
        """Column index of ``instance``, padding a hole up to it."""
        index = instance - self.base
        if index < 0:
            raise ValueError(f"instance {instance} is below the trimmed point {self.base}")
        hole = index + 1 - len(self.flags)
        if hole > 0:
            self.values.extend([None] * hole)
            self.ballots.extend([-1] * hole)
            self.flags.extend(bytes(hole))
            self.next = instance + 1
        return index

    def _index(self, instance: int) -> int:
        """Column index of ``instance``, or -1 when the columns do not cover it."""
        index = instance - self.base
        return index if 0 <= index < len(self.flags) else -1

    # ------------------------------------------------------------------ votes
    def vote(self, instance: int) -> Optional[Tuple[int, int, Any]]:
        """``(promised, accepted, value)`` held for ``instance``, if any."""
        index = self._index(instance)
        if index < 0 or not self.flags[index] & VOTED:
            return None
        ballot = self.ballots[index]
        promised, accepted = ballot if ballot.__class__ is tuple else (ballot, ballot)
        return promised, accepted, self.values[index]

    def set_vote(self, instance: int, promised: int, accepted: int, value: Any) -> None:
        """Store the acceptor's state for ``instance`` (at or above ``base``)."""
        index = self._reach(instance)
        held = self.vote(instance)
        if held is not None and (held[2] is not value or held[1] != accepted):
            # The vote changes under views that read it: they get their copy.
            for flag, side in self.sides.items():
                if self.flags[index] & flag and instance not in side:
                    side[instance] = self.get(instance, flag)
        self.values[index] = value
        self.ballots[index] = accepted if promised == accepted else (promised, accepted)
        self.flags[index] |= VOTED

    def promise(self, from_instance: int, to_instance: int, ballot: int) -> None:
        """Raise the promise of every instance in the window that holds state."""
        ballots, flags = self.ballots, self.flags
        low = max(from_instance - self.base, 0)
        high = min(to_instance - self.base + 1, len(flags))
        raised: Dict[int, Tuple[int, int]] = {}  # one shared pair per accepted ballot
        for index in range(low, high):
            if flags[index] & VOTED:
                held = ballots[index]
                promised, accepted = held if held.__class__ is tuple else (held, held)
                if ballot > promised and ballot > accepted:
                    ballots[index] = raised.setdefault(accepted, (ballot, accepted))

    def votes_between(self, from_instance: int, to_instance: int) -> List[Tuple[int, int, Any]]:
        """``(instance, ballot, value)`` of every vote in the closed range, in order."""
        low = max(from_instance - self.base, 0)
        high = max(min(to_instance - self.base + 1, len(self.flags)), low)
        out = []
        for instance, ballot, value in zip(
            count(self.base + low), self.ballots[low:high], self.values[low:high]
        ):
            if ballot.__class__ is tuple:
                ballot = ballot[1]
            if ballot >= 0:
                out.append((instance, ballot, value))
        return out

    def forget_votes_and_decisions(self) -> None:
        """An acceptor crash: votes and decisions go, log records stay."""
        flags = self.flags
        for instance in self.instances(LOGGED):  # what survives stops reading the votes
            self.records.setdefault(instance, self.get(instance, LOGGED))
        flags[:] = flags.translate(_CLEAR[VOTED | DECIDED])
        del flags[len(flags.rstrip(b"\0")):]
        self.values[:] = [None] * len(flags)
        self.ballots[:] = [-1] * len(flags)
        self.decisions.clear()
        self.next = self.base + len(flags)

    # ------------------------------------------------------- decision / log
    def has(self, instance: int, flag: int) -> bool:
        """Whether the view ``flag`` holds ``instance``."""
        index = self._index(instance)
        return index >= 0 and bool(self.flags[index] & flag)

    def get(self, instance: int, flag: int) -> Any:
        """What the view holds for ``instance`` (built on demand), or ``None``."""
        if not self.has(instance, flag):
            return None
        own = self.sides[flag].get(instance)
        if own is not None:
            return own
        _promised, accepted, value = self.vote(instance)
        if flag == LOGGED:
            return LogRecord(instance, accepted, value, value.size_bytes)
        return value

    def is_vote(self, instance: int, value: Any, ballot: Optional[int] = None) -> bool:
        """Whether ``value`` (at ``ballot``, if given) is the vote in the columns."""
        held = self.vote(instance)
        return (
            held is not None
            and held[2] is value
            and value is not None
            and (ballot is None or held[1] == ballot)
        )

    def attach(self, instance: int, flag: int, content: Any, shared: bool) -> bool:
        """Give ``instance`` an entry in the view; returns whether it is new.

        ``shared`` says the entry is exactly the vote in the columns, so the
        flag alone stores it; anything else keeps ``content`` in a side dict.
        """
        index = self._reach(instance)
        new = not self.flags[index] & flag
        self.flags[index] |= flag
        if shared:
            self.sides[flag].pop(instance, None)
        else:
            self.sides[flag][instance] = content
        return new

    def detach(self, instance: int, flag: int) -> None:
        """Remove ``instance`` from the view."""
        index = self._index(instance)
        if index >= 0:
            self.flags[index] &= ~flag
            self.sides[flag].pop(instance, None)

    def instances(self, flag: int) -> List[int]:
        """Sorted instance numbers the view holds."""
        return list(compress(count(self.base), self.flags.translate(_HAS[flag])))

    def highest(self, flag: int) -> int:
        """Highest instance the view holds, or -1 (a scan of the flag column)."""
        index = self.flags.translate(_HAS[flag]).rfind(1)
        return self.base + index if index >= 0 else -1

    def decided(self, from_instance: int, to_instance: Optional[int] = None
                ) -> List[Tuple[int, Any]]:
        """Decided ``(instance, value)`` pairs in the closed range, in order."""
        others = self.decisions
        low = max(from_instance - self.base, 0)
        high = len(self.flags) if to_instance is None else max(to_instance - self.base + 1, low)
        return [
            (instance, others.get(instance, value))
            for instance, value, flag in zip(
                count(self.base + low), self.values[low:high], self.flags[low:high]
            )
            if flag & DECIDED
        ]

    # ------------------------------------------------------------------ trim
    def drop(self, flag: int, up_to_instance: int) -> int:
        """Remove one view's entries up to ``up_to_instance``; returns how many."""
        flags = self.flags
        size = max(min(up_to_instance + 1 - self.base, len(flags)), 0)
        removed = sum(flags[:size].translate(_HAS[flag]))
        flags[:size] = flags[:size].translate(_CLEAR[flag])
        side = self.sides.get(flag)
        if side:
            for instance in [i for i in side if i <= up_to_instance]:
                del side[instance]
        return removed

    def trim(self, up_to_instance: int) -> int:
        """Drop every instance up to ``up_to_instance`` (at or above ``base``).

        Returns the number of votes, log records and decisions removed.
        """
        removed = sum(self.drop(flag, up_to_instance) for flag in (LOGGED, DECIDED, VOTED))
        self._release(min(up_to_instance + 1 - self.base, len(self.flags)))
        if not self.flags:
            self.base = self.next = max(self.base, up_to_instance + 1)
        return removed

    def _release(self, size: int) -> None:
        del self.values[:size]
        del self.ballots[:size]
        del self.flags[:size]
        self.base += size

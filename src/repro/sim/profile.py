"""Opt-in profiling for the simulation kernel.

Two complementary instruments:

* :class:`SimProfile` — a lightweight collector the kernel drives itself.
  Install one with ``Simulator(profile=SimProfile())`` and ``run`` steps
  through the same event sequence one :meth:`Simulator.step` at a time;
  ``step`` attributes an event count and a wall-time measurement to every
  callback it executes, keyed by the callback's qualified name.  The
  default run loop carries **zero** profiling branches — the cost is paid
  only when a profile is installed.
* :func:`profile_function` — a cProfile wrapper for whole-run profiling.
  Returns the wrapped call's result together with a JSON-able list of the
  top-N hot functions (by total time).

Both stay out of the way by default: nothing in this module is imported by
the kernel's hot path, and ``profile=None`` (the default) leaves the run
loop untouched.
"""

from __future__ import annotations

import cProfile
import pstats
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SimProfile", "profile_function"]


class SimProfile:
    """Per-callback event counts and wall time, collected by the kernel.

    Attributes
    ----------
    events:
        ``callback qualname -> number of events executed``.
    wall:
        ``callback qualname -> cumulative wall seconds`` spent inside the
        callback (exclusive of heap bookkeeping).
    clock:
        The timer the kernel brackets each callback with; injectable for
        deterministic tests.
    """

    __slots__ = ("clock", "events", "wall", "_names")

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.events: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        # Callables seen before, keyed by identity: resolving __qualname__
        # per event would dominate the measurement itself.  Bound methods
        # are recreated per call site, so the memo also keys on the
        # underlying function when one exists.
        self._names: Dict[int, str] = {}

    def record(self, callback: Any, elapsed: float) -> None:
        """Attribute one executed event to ``callback``."""
        func = getattr(callback, "__func__", callback)
        key = self._names.get(id(func))
        if key is None:
            key = getattr(func, "__qualname__", None) or type(callback).__name__
            self._names[id(func)] = key
        self.events[key] = self.events.get(key, 0) + 1
        self.wall[key] = self.wall.get(key, 0.0) + elapsed

    @property
    def total_events(self) -> int:
        """Number of events attributed so far."""
        return sum(self.events.values())

    @property
    def total_wall_s(self) -> float:
        """Wall seconds spent inside callbacks so far."""
        return sum(self.wall.values())

    def top(self, n: int = 15) -> List[Dict[str, Any]]:
        """The ``n`` most expensive callbacks by cumulative wall time."""
        rows = sorted(self.wall.items(), key=lambda kv: kv[1], reverse=True)
        return [
            {
                "callback": name,
                "events": self.events.get(name, 0),
                "wall_s": round(seconds, 6),
            }
            for name, seconds in rows[:n]
        ]

    def as_dict(self, top: int = 15) -> Dict[str, Any]:
        """JSON-able summary (what the benchmark writes to disk)."""
        return {
            "total_events": self.total_events,
            "total_wall_s": round(self.total_wall_s, 6),
            "events_by_callback": self.top(top),
        }


def _format_entry(key: Tuple[str, int, str]) -> str:
    filename, line, name = key
    if filename == "~":            # built-ins have no file
        return name
    short = "/".join(filename.split("/")[-2:])
    return f"{short}:{line}({name})"


def profile_function(
    fn: Callable[..., Any],
    *args: Any,
    top: int = 20,
    **kwargs: Any,
) -> Tuple[Any, List[Dict[str, Any]]]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, hot)`` where ``hot`` lists the ``top`` functions by
    total (exclusive) time as JSON-able dicts: ``function``, ``calls``,
    ``tottime_s``, ``cumtime_s``.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    stats = pstats.Stats(profiler)
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)
    hot: List[Dict[str, Any]] = []
    for key, (cc, nc, tt, ct, _callers) in rows[:top]:
        hot.append(
            {
                "function": _format_entry(key),
                "calls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return result, hot

"""Declarative fault schedules executed on the simulation clock.

A :class:`FaultSchedule` is a timeline of :class:`FaultEvent` entries, each
naming an action and its parameters.  Applying a schedule to a running
:class:`~repro.core.amcast.AtomicMulticast` deployment arms one simulator
timer per event; when a timer fires the action is executed against the
deployment (crash a process, cut a link, spike a disk, reconfigure a ring).

Schedules are plain data: they serialise to/from lists of dicts, which is how
the scenario runner embeds the exact fault timeline of a failing run in its
repro artifact.

Supported actions
-----------------
``crash`` / ``restart``
    Crash or restart a named process via the deployment façade (the crash
    also reconfigures every ring the process was a member of, mirroring
    Zookeeper's ephemeral-node expiry).
``partition`` / ``heal``
    Cut / restore the links between two sites.
``isolate`` / ``rejoin``
    Drop / restore all traffic of one site.
``disk_spike`` / ``disk_restore``
    Multiply / reset the write latency of every disk whose name contains
    ``match`` (empty string matches every device).
``remove_from_ring`` / ``add_to_ring``
    Voluntary ring reconfiguration (a member leaving / rejoining without
    crashing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["FaultEvent", "FaultSchedule"]


@dataclass(frozen=True)
class FaultEvent:
    """One entry of a fault timeline.

    Attributes
    ----------
    at:
        Simulation time (seconds) the action executes at.
    action:
        Action name (see module docstring).
    params:
        Keyword parameters of the action.
    """

    at: float
    action: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form used by repro artifacts."""
        return {"at": self.at, "action": self.action, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(at=float(data["at"]), action=str(data["action"]), params=dict(data.get("params", {})))


def _crash(system, process: str) -> None:
    if system.env.has_actor(process) and system.env.actor(process).alive:
        system.crash_process(process)


def _restart(system, process: str) -> None:
    if system.env.has_actor(process) and not system.env.actor(process).alive:
        system.restart_process(process)


def _partition(system, site_a: str, site_b: str, bidirectional: bool = True) -> None:
    system.network.partition(site_a, site_b, bidirectional=bidirectional)


def _heal(system, site_a: str, site_b: str) -> None:
    system.network.heal(site_a, site_b)


def _isolate(system, site: str) -> None:
    system.network.isolate_site(site)


def _rejoin(system, site: str) -> None:
    system.network.rejoin_site(site)


def _disk_spike(system, factor: float, match: str = "") -> None:
    for disk in system.env.disks():
        if match in disk.name:
            disk.set_slowdown(factor)


def _disk_restore(system, match: str = "") -> None:
    for disk in system.env.disks():
        if match in disk.name:
            disk.clear_slowdown()


def _remove_from_ring(system, ring_id: int, process: str) -> None:
    overlay = system.ring(ring_id)
    if process not in overlay:
        return
    member = overlay.member(process)
    if member.acceptor and len(overlay.acceptors) <= 1:
        return  # cannot remove the last acceptor; the ring would wedge
    system.remove_from_ring(ring_id, process)


def _add_to_ring(system, ring_id: int, process: str, roles: str = "pal") -> None:
    if process in system.ring(ring_id):
        return
    system.add_to_ring(ring_id, (process, roles))


_ACTIONS: Dict[str, Callable[..., None]] = {
    "crash": _crash,
    "restart": _restart,
    "partition": _partition,
    "heal": _heal,
    "isolate": _isolate,
    "rejoin": _rejoin,
    "disk_spike": _disk_spike,
    "disk_restore": _disk_restore,
    "remove_from_ring": _remove_from_ring,
    "add_to_ring": _add_to_ring,
}


class FaultSchedule:
    """An ordered timeline of fault events plus the machinery to run it."""

    def __init__(self, events: Optional[Sequence[FaultEvent]] = None) -> None:
        self.events: List[FaultEvent] = sorted(events or [], key=lambda e: e.at)
        #: ``(time, action, params)`` triples actually executed (events whose
        #: guard made them a no-op are recorded too — the timeline is what is
        #: being debugged, not its effect)
        self.executed: List[Tuple[float, str, Dict[str, Any]]] = []

    # -------------------------------------------------------------- building
    def add(self, at: float, action: str, **params: Any) -> "FaultSchedule":
        """Append an event (keeps the timeline sorted); returns ``self``."""
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action: {action}")
        self.events.append(FaultEvent(at=at, action=action, params=params))
        self.events.sort(key=lambda e: e.at)
        return self

    def crash(self, at: float, process: str) -> "FaultSchedule":
        """Crash ``process`` at ``at`` (rings reconfigure around it)."""
        return self.add(at, "crash", process=process)

    def restart(self, at: float, process: str) -> "FaultSchedule":
        """Restart ``process`` at ``at`` (its recovery protocol runs)."""
        return self.add(at, "restart", process=process)

    def partition(self, at: float, site_a: str, site_b: str) -> "FaultSchedule":
        """Cut the links between two sites at ``at``."""
        return self.add(at, "partition", site_a=site_a, site_b=site_b)

    def heal(self, at: float, site_a: str, site_b: str) -> "FaultSchedule":
        """Restore the links between two sites at ``at``."""
        return self.add(at, "heal", site_a=site_a, site_b=site_b)

    def isolate(self, at: float, site: str) -> "FaultSchedule":
        """Drop all traffic of ``site`` starting at ``at``."""
        return self.add(at, "isolate", site=site)

    def rejoin(self, at: float, site: str) -> "FaultSchedule":
        """Undo an isolation at ``at``."""
        return self.add(at, "rejoin", site=site)

    def disk_spike(self, at: float, factor: float, match: str = "") -> "FaultSchedule":
        """Slow matching disks down by ``factor`` starting at ``at``."""
        return self.add(at, "disk_spike", factor=factor, match=match)

    def disk_restore(self, at: float, match: str = "") -> "FaultSchedule":
        """End a disk-latency spike at ``at``."""
        return self.add(at, "disk_restore", match=match)

    # ------------------------------------------------------------- execution
    def apply(self, system) -> None:
        """Arm one simulator timer per event against ``system``.

        Events whose time is already in the past execute at the current
        simulation time (a schedule is normally applied before ``run``).
        """
        now = system.env.simulator.now
        for event in self.events:
            delay = max(0.0, event.at - now)
            system.env.simulator.call_later(delay, self._execute, system, event)

    def _execute(self, system, event: FaultEvent) -> None:
        self.executed.append((system.env.simulator.now, event.action, dict(event.params)))
        _ACTIONS[event.action](system, **event.params)

    # ----------------------------------------------------------- inspection
    @property
    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return self.events[-1].at if self.events else 0.0

    # -------------------------------------------------------- serialisation
    def to_dicts(self) -> List[Dict[str, Any]]:
        """The timeline as plain data (embeddable in a JSON artifact)."""
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(cls, data: Sequence[Dict[str, Any]]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dicts` output."""
        return cls([FaultEvent.from_dict(entry) for entry in data])

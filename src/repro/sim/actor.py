"""Actor abstraction on top of the discrete-event kernel.

Every process of the paper's system (proposers, acceptors, learners,
coordinators, replicas, clients, baseline servers) is modelled as an
:class:`Actor`: it receives messages through :meth:`Actor.on_message`, sends
messages through the environment's network, and sets timers.

The :class:`Environment` bundles the pieces every actor needs — the kernel,
the network, the topology, the metric registry and the seeded RNG streams —
so that constructing an experiment is a single object graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from .cpu import CpuAccount
from .kernel import EventHandle, Simulator
from .metrics import MetricRegistry
from .random import SeededStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .network import Network
    from .topology import Topology

__all__ = ["Actor", "Environment", "Timer"]


class Environment:
    """Shared simulation context: kernel, network, metrics, RNG, topology.

    Parameters
    ----------
    simulator:
        The event kernel.  A fresh one is created when omitted.
    seed:
        Experiment seed used to derive every random stream.
    """

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator or Simulator()
        self.streams = SeededStreams(seed)
        sim = self.simulator
        # Instruments read the clock on every sample; go straight to the
        # kernel's time attribute instead of through the ``now`` property.
        self.metrics = MetricRegistry(clock=lambda: sim._now)
        self.network: Optional["Network"] = None
        self.topology: Optional["Topology"] = None
        self._actors: Dict[str, "Actor"] = {}
        self._disks: List[Any] = []

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.simulator.now

    # ---------------------------------------------------------------- actors
    def register(self, actor: "Actor") -> None:
        """Register an actor so it can be addressed by name."""
        if actor.name in self._actors:
            raise ValueError(f"actor name already registered: {actor.name}")
        self._actors[actor.name] = actor

    def actor(self, name: str) -> "Actor":
        """Look up a registered actor by name."""
        return self._actors[name]

    def get_actor(self, name: str) -> Optional["Actor"]:
        """Look up a registered actor, returning ``None`` when unknown.

        Fast-path variant of :meth:`actor` used by the network so a miss does
        not pay for exception handling.
        """
        return self._actors.get(name)

    def actors(self) -> List["Actor"]:
        """All registered actors (registration order)."""
        return list(self._actors.values())

    def has_actor(self, name: str) -> bool:
        """Whether an actor with this name is registered."""
        return name in self._actors

    # ----------------------------------------------------------------- disks
    def register_disk(self, disk: Any) -> None:
        """Track a storage device (fault injection targets them by name)."""
        self._disks.append(disk)

    def disks(self) -> List[Any]:
        """Every storage device created in this environment."""
        return list(self._disks)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (delegates to the kernel)."""
        return self.simulator.run(until=until)


class Timer:
    """A cancellable, optionally periodic timer owned by an actor."""

    def __init__(
        self,
        actor: "Actor",
        interval: float,
        callback: Callable[[], None],
        periodic: bool = False,
    ) -> None:
        self._actor = actor
        self._interval = interval
        self._callback = callback
        self._periodic = periodic
        self._simulator = actor.env.simulator
        self._handle: Optional[EventHandle] = None
        self._cancelled = False

    def start(self) -> "Timer":
        """Arm the timer."""
        self._cancelled = False
        self._schedule()
        return self

    def cancel(self) -> None:
        """Disarm the timer; pending fires are dropped."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    def _schedule(self) -> None:
        self._handle = self._simulator.call_later(self._interval, self._fire)

    def _fire(self) -> None:
        if self._cancelled or not self._actor.alive:
            return
        self._callback()
        if self._periodic and not self._cancelled and self._actor.alive:
            self._schedule()


class Actor:
    """Base class for every simulated process.

    Subclasses implement :meth:`on_message` and optionally :meth:`on_start`.
    An actor lives at a :class:`~repro.sim.topology.Site`; message latency to
    other actors is determined by the network from the two sites involved.

    Crash/recovery: :meth:`crash` makes the actor drop every incoming message
    and cancels its timers; :meth:`restart` brings it back (subclasses reset
    their volatile state by overriding :meth:`on_restart`).  This mirrors the
    crash-recovery failure model of the paper (Section 2).
    """

    def __init__(self, env: Environment, name: str, site: str = "dc1") -> None:
        self.env = env
        self.name = name
        self.site = site
        self.alive = True
        self.cpu = CpuAccount(clock=lambda: env.simulator.now)
        self._timers: List[Timer] = []
        #: cached bound ``Network.send`` (resolved lazily: the network is
        #: usually attached to the environment after actors are constructed)
        self._cached_network: Optional["Network"] = None
        self._network_send: Optional[Callable[[str, str, Any], None]] = None
        env.register(self)

    # ----------------------------------------------------------------- hooks
    def on_start(self) -> None:
        """Called once when the experiment starts (override as needed)."""

    def on_message(self, sender: str, message: Any) -> None:
        """Handle a delivered message (override)."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Called when the actor crashes (override to drop volatile state)."""

    def on_restart(self) -> None:
        """Called when the actor restarts after a crash (override)."""

    # ------------------------------------------------------------- messaging
    def send(self, dest: str, message: Any) -> None:
        """Send ``message`` to the actor named ``dest`` through the network."""
        if not self.alive:
            return
        network = self.env.network
        if network is not self._cached_network:
            # First send, or the environment's network was swapped (tests do
            # this): rebind the cached send entry point.
            if network is None:
                raise RuntimeError("environment has no network attached")
            self._cached_network = network
            self._network_send = network.send
        self._network_send(self.name, dest, message)

    def deliver(self, sender: str, message: Any) -> None:
        """Entry point used by the network; drops messages while crashed."""
        if not self.alive:
            return
        self.on_message(sender, message)

    # ---------------------------------------------------------------- timers
    def set_timer(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` once after ``delay`` seconds (cancellable)."""
        timer = Timer(self, delay, callback, periodic=False).start()
        self._timers.append(timer)
        return timer

    def set_periodic_timer(self, interval: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        timer = Timer(self, interval, callback, periodic=True).start()
        self._timers.append(timer)
        return timer

    # --------------------------------------------------------- crash/restart
    def crash(self) -> None:
        """Crash the actor: timers cancelled, messages dropped until restart."""
        if not self.alive:
            return
        self.alive = False
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.on_crash()

    def restart(self) -> None:
        """Restart a crashed actor."""
        if self.alive:
            return
        self.alive = True
        self.on_restart()

    # ------------------------------------------------------------------ misc
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.env.simulator.now

    def rng(self, purpose: str = "default"):
        """A seeded random stream private to this actor and purpose."""
        return self.env.streams.stream(f"{self.name}:{purpose}")

"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed.  It provides the event
kernel (:mod:`repro.sim.kernel`), the actor model (:mod:`repro.sim.actor`),
the network (:mod:`repro.sim.network`), deployment topologies
(:mod:`repro.sim.topology`), storage-device models (:mod:`repro.sim.disk`),
CPU accounting (:mod:`repro.sim.cpu`), measurement instruments
(:mod:`repro.sim.metrics`), seeded randomness (:mod:`repro.sim.random`) and
conservative multi-core execution of sharded deployments
(:mod:`repro.sim.parallel`).

Quick tour
----------
Schedule and run events on the deterministic kernel::

    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_later(0.5, fired.append, "hello")
    >>> sim.run()
    0.5
    >>> fired
    ['hello']

Higher layers rarely touch the kernel directly: protocol code subclasses
:class:`Actor` (messages + timers), experiments construct an
:class:`Environment` (kernel + network + topology + metrics + seeded RNG
streams) — usually through :class:`repro.core.AtomicMulticast`, which wires a
whole Multi-Ring Paxos deployment.
"""

from .actor import Actor, Environment, Timer
from .parallel import ParallelRunResult, ShardHarness, ShardSpec, run_sharded
from .cpu import CpuAccount, CpuCostModel
from .disk import Disk, DiskProfile, HDD_PROFILE, SSD_PROFILE, StorageMode, profile_for_mode
from .kernel import Event, EventHandle, SimulationError, Simulator
from .metrics import Counter, LatencyRecorder, MetricRegistry, ThroughputTracker
from .network import MessageStats, Network
from .random import LatestGenerator, SeededStreams, ZipfianGenerator
from .topology import EC2_REGIONS, Site, Topology, ec2_global, single_datacenter

__all__ = [
    "Actor",
    "Environment",
    "Timer",
    "CpuAccount",
    "CpuCostModel",
    "Disk",
    "DiskProfile",
    "HDD_PROFILE",
    "SSD_PROFILE",
    "StorageMode",
    "profile_for_mode",
    "Event",
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Counter",
    "LatencyRecorder",
    "MetricRegistry",
    "ThroughputTracker",
    "MessageStats",
    "Network",
    "ParallelRunResult",
    "ShardHarness",
    "ShardSpec",
    "run_sharded",
    "LatestGenerator",
    "SeededStreams",
    "ZipfianGenerator",
    "EC2_REGIONS",
    "Site",
    "Topology",
    "ec2_global",
    "single_datacenter",
]

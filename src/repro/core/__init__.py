"""Public library API: deployment façade, configuration, SMR and clients."""

from .amcast import AtomicMulticast, parse_roles
from .client import ClosedLoopClient, Command, OpenLoopClient
from .config import MultiRingConfig, global_config
from .packing import PackedValues, iter_commands, iter_payloads, iter_values
from .smr import ProposerFrontend, ReactiveReplicaHost, StateMachineReplica
from .swarm import ChurnSpec, ClientSwarm, shared_factory

__all__ = [
    "AtomicMulticast",
    "parse_roles",
    "ClosedLoopClient",
    "OpenLoopClient",
    "Command",
    "MultiRingConfig",
    "global_config",
    "PackedValues",
    "iter_commands",
    "iter_payloads",
    "iter_values",
    "ProposerFrontend",
    "ReactiveReplicaHost",
    "StateMachineReplica",
    "ChurnSpec",
    "ClientSwarm",
    "shared_factory",
]

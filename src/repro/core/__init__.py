"""Public library API: deployment façade, configuration, SMR and clients."""

from .amcast import AtomicMulticast, parse_roles
from .client import ClosedLoopClient, Command, CommandBatch, CommandBatcher, OpenLoopClient
from .config import MultiRingConfig, global_config, local_config
from .packing import PackedValues, iter_commands, iter_payloads, iter_values
from .smr import ProposerFrontend, ReactiveMergeStage, ReactiveReplicaHost, StateMachineReplica
from .swarm import ChurnSpec, ClientSwarm, shared_factory

__all__ = [
    "AtomicMulticast",
    "parse_roles",
    "ClosedLoopClient",
    "OpenLoopClient",
    "Command",
    "CommandBatch",
    "CommandBatcher",
    "MultiRingConfig",
    "global_config",
    "local_config",
    "PackedValues",
    "iter_commands",
    "iter_payloads",
    "iter_values",
    "ProposerFrontend",
    "ReactiveMergeStage",
    "ReactiveReplicaHost",
    "StateMachineReplica",
    "ChurnSpec",
    "ClientSwarm",
    "shared_factory",
]

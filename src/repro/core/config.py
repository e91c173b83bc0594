"""Configuration of a Multi-Ring Paxos deployment.

:class:`MultiRingConfig` gathers every knob the paper exposes:

* ``M`` — consensus instances consumed from one ring before the deterministic
  merge moves to the next ring;
* ``Δ`` (``rate_interval``) and ``λ`` (``max_rate``) — the rate-leveling
  parameters;
* the acceptor storage mode (Figure 3's five modes);
* client/coordinator batching;
* checkpoint and trim periods used by the recovery protocol.

The defaults are Section 8.2's setting within a datacenter (``M=1``,
``Δ=5 ms``, ``λ=9000``); :func:`global_config` is its setting across
datacenters (``M=1``, ``Δ=20 ms``, ``λ=2000``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..multiring.ratelevel import RateLeveler
from ..ringpaxos.coordinator import InstanceBatchPolicy
from ..ringpaxos.node import RingNodeConfig
from ..sim.cpu import CpuCostModel
from ..sim.disk import StorageMode

__all__ = ["MultiRingConfig", "global_config"]

#: Maximum client batch size (Sections 7.2 and 7.3).
CLIENT_BATCH_BYTES = 32 * 1024


@dataclass
class MultiRingConfig:
    """All tunables of one Multi-Ring Paxos deployment.

    The paper's symbols map onto fields as follows:

    ========  ======================  =========================================
    paper     field                   meaning
    ========  ======================  =========================================
    ``M``     ``messages_per_round``  consensus instances the deterministic
                                      merge consumes from one ring before
                                      moving to the next (Section 4)
    ``Δ``     ``rate_interval``       rate-leveling interval in seconds; every
                                      Δ an under-loaded ring's coordinator
                                      proposes skips (``None`` disables)
    ``λ``     ``max_rate``            rate-leveling maximum expected rate,
                                      messages per second
    ========  ======================  =========================================

    The defaults are Section 8.2's intra-datacenter setting (M=1, Δ=5 ms,
    λ=9000); :func:`global_config` is its cross-datacenter one (M=1,
    Δ=20 ms, λ=2000).  Use :meth:`with_` to derive variants::

        config = MultiRingConfig().with_(batching_enabled=True)

    The remaining fields control acceptor storage (Figure 3's five modes),
    coordinator batching (Sections 7.2/7.3), the recovery machinery
    (checkpoint/trim periods, Section 5) and the fault-repair timers added by
    the chaos substrate (``gap_repair_interval``, default off so failure-free
    benchmarks match the paper).
    """

    #: Deterministic-merge parameter M: instances per ring per round.
    messages_per_round: int = 1
    #: Rate-leveling interval Δ in seconds (``None`` disables skip proposals).
    rate_interval: Optional[float] = 0.005
    #: Rate-leveling maximum expected rate λ in messages per second.
    max_rate: float = 9000.0
    #: Acceptor stable-storage mode.
    storage_mode: StorageMode = StorageMode.IN_MEMORY
    #: Coordinator instance batching (disabled for the Figure 3 baseline).
    batching_enabled: bool = False
    #: Maximum bytes of payload packed into one instance when batching.
    batch_max_bytes: int = CLIENT_BATCH_BYTES
    #: Size-or-timeout assembly: how long the coordinator may hold a partial
    #: batch waiting for more values (seconds).  ``0`` disables the hold —
    #: only co-queued values share an instance, as before the delay trigger.
    batch_max_delay: float = 0.0005
    #: How often replicas checkpoint their state (seconds); None disables it.
    checkpoint_interval: Optional[float] = 10.0
    #: How often coordinators run the trim protocol (seconds); None disables it.
    trim_interval: Optional[float] = 20.0
    #: How often stalled learners probe acceptors for missing decisions
    #: (seconds); None disables gap repair (the default — it only matters when
    #: faults can drop circulating decisions, and the chaos harness enables it).
    gap_repair_interval: Optional[float] = None
    #: CPU cost model charged per protocol message.
    cpu_model: CpuCostModel = field(default_factory=CpuCostModel)

    # ------------------------------------------------------------ derivation
    def rate_leveler(self) -> Optional[RateLeveler]:
        """The rate-leveling policy, or ``None`` when disabled."""
        if self.rate_interval is None:
            return None
        return RateLeveler(interval=self.rate_interval, max_rate=self.max_rate)

    def batch_policy(self) -> InstanceBatchPolicy:
        """The coordinator batching policy derived from this configuration."""
        return InstanceBatchPolicy(
            enabled=self.batching_enabled,
            max_bytes=self.batch_max_bytes,
            max_delay=self.batch_max_delay,
        )

    def ring_node_config(self) -> RingNodeConfig:
        """Materialise the per-ring node configuration."""
        return RingNodeConfig(
            storage_mode=self.storage_mode,
            cpu_model=self.cpu_model,
            batch_policy=self.batch_policy(),
            rate_interval=self.rate_interval,
            rate_policy=self.rate_leveler(),
            trim_interval=self.trim_interval,
            gap_repair_interval=self.gap_repair_interval,
        )

    def with_(self, **changes) -> "MultiRingConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **changes)


def global_config(storage_mode: StorageMode = StorageMode.ASYNC_SSD) -> MultiRingConfig:
    """The paper's cross-datacenter configuration (M=1, Δ=20 ms, λ=2000)."""
    return MultiRingConfig(
        messages_per_round=1,
        rate_interval=0.020,
        max_rate=2000.0,
        storage_mode=storage_mode,
    )

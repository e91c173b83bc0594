"""Rate leveling policy.

With deterministic merge, learners consume ``M`` instances from every ring in
turn, so the delivery rate of *every* subscribed ring is capped by the rate of
the slowest one.  To prevent an idle or slow group from throttling the rest,
Multi-Ring Paxos has coordinators of slow rings propose *skip* instances: at
every ``Δ`` interval a coordinator compares how many instances it proposed
during the interval with the maximum expected rate ``λ`` and proposes enough
null (skip) instances to make up the difference (Section 4).

The paper's configurations (Section 8.2):

* within a datacenter: ``M = 1``, ``Δ = 5 ms``, ``λ = 9000`` messages/s;
* across datacenters:  ``M = 1``, ``Δ = 20 ms``, ``λ = 2000`` messages/s.

:class:`RateLeveler` is the pure policy object; the ring coordinator queries
``skips_needed`` at each Δ tick and tops up with skips.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RateLeveler", "LOCAL_RATE_LEVELER", "GLOBAL_RATE_LEVELER"]


@dataclass(frozen=True)
class RateLeveler:
    """Skip-instance policy for one ring.

    Attributes
    ----------
    interval:
        The Δ interval in seconds between coordinator checks.
    max_rate:
        The λ parameter: maximum expected rate of the group in messages per
        second.
    """

    interval: float = 0.005
    max_rate: float = 9000.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval (Δ) must be positive")
        if self.max_rate < 0:
            raise ValueError("max_rate (λ) cannot be negative")

    @property
    def expected_per_interval(self) -> float:
        """Instances the ring is expected to complete per Δ interval (λ·Δ)."""
        return self.max_rate * self.interval

    def skips_needed(self, proposed_in_interval: int) -> int:
        """Skip instances to propose given what was proposed this interval."""
        return max(0, int(round(self.expected_per_interval)) - proposed_in_interval)


#: The paper's local-datacenter configuration (Δ = 5 ms, λ = 9000).
LOCAL_RATE_LEVELER = RateLeveler(interval=0.005, max_rate=9000.0)

#: The paper's cross-datacenter configuration (Δ = 20 ms, λ = 2000).
GLOBAL_RATE_LEVELER = RateLeveler(interval=0.020, max_rate=2000.0)

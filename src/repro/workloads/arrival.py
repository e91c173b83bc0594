"""Arrival-rate curves for open-loop workload generation.

An :class:`ArrivalCurve` maps simulation time to an *aggregate* offered load
in requests per second.  The client swarm samples it whenever it reschedules
a flyweight client, so the same spec drives anything from a steady fig7-style
offered load to a flash crowd.

Two shapes cover the experiments:

* ``constant`` — fixed rate, the classic open-loop benchmark.
* ``flash`` — a baseline rate with a multiplicative spike: linear ramp up
  at ``at``, hold, then linear decay back to baseline (the flash crowd of
  the chaos scenarios).

Curves are plain frozen dataclasses: picklable (they cross process
boundaries with the sharded engine's shard specs) and hashable, with no
hidden randomness — determinism lives entirely in the seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ArrivalCurve", "constant", "flash_crowd"]

# Curves never return a rate below this, so interarrival times stay finite.
_MIN_RATE = 1e-9


@dataclass(frozen=True)
class ArrivalCurve:
    """A time-varying aggregate arrival rate (requests/second).

    ``kind`` selects the shape; the remaining fields are interpreted per
    shape (see the module docstring and the factory helpers).
    """

    kind: str = "constant"
    rate: float = 100.0        # constant: the rate; flash: baseline
    peak: float = 0.0          # flash: rate at the top of the curve
    at: float = 0.0            # flash: spike start time
    ramp: float = 1.0          # flash: seconds to climb baseline -> peak
    hold: float = 1.0          # flash: seconds at peak
    decay: float = 1.0         # flash: seconds to fall peak -> baseline

    def rate_at(self, t: float) -> float:
        """Aggregate offered load (requests/second) at time ``t``."""
        if self.kind == "constant":
            rate = self.rate
        elif self.kind == "flash":
            rate = self._flash_rate(t)
        else:
            raise ValueError(f"unknown arrival curve kind: {self.kind!r}")
        return max(_MIN_RATE, rate)

    def _flash_rate(self, t: float) -> float:
        dt = t - self.at
        if dt < 0 or dt >= self.ramp + self.hold + self.decay:
            return self.rate
        if dt < self.ramp:
            frac = dt / self.ramp if self.ramp > 0 else 1.0
            return self.rate + (self.peak - self.rate) * frac
        if dt < self.ramp + self.hold:
            return self.peak
        frac = (dt - self.ramp - self.hold) / self.decay if self.decay > 0 else 1.0
        return self.peak + (self.rate - self.peak) * frac


def constant(rate: float) -> ArrivalCurve:
    """A fixed offered load of ``rate`` requests/second."""
    return ArrivalCurve(kind="constant", rate=rate)


def flash_crowd(
    base: float,
    peak: float,
    at: float,
    ramp: float = 1.0,
    hold: float = 1.0,
    decay: float = 1.0,
) -> ArrivalCurve:
    """A flash crowd: baseline ``base``, spiking to ``peak`` at time ``at``."""
    return ArrivalCurve(
        kind="flash", rate=base, peak=peak, at=at, ramp=ramp, hold=hold, decay=decay
    )

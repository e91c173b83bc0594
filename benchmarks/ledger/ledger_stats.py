"""Order statistics, the host clock and the calibration loop of the ledger benchmark.

Host timings on a shared box drift with the machine, not with the code under
test, and its noise is one-sided: neighbours only ever slow a slice down
(README, "Calibration").  Host time is CPU time of the whole process tree
(:func:`host_clock`), and every host metric is the run's fastest slice over
the mean of the run's three fastest calibration loops, scaled back to
seconds by the constant :data:`CALIB_REF_S`.
"""

from __future__ import annotations

import resource
import statistics
from heapq import heappop, heappush
from time import process_time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Iterations of the calibration loop (≈0.15 s on the box the sizes were
#: chosen on).
CALIB_ITERATIONS = 300_000

#: The calibration time every normalised host metric is scaled to, in
#: seconds: ``normalised_s = host_s / calib_s * CALIB_REF_S``.  A constant of
#: the benchmark — changing it rescales every host metric.
CALIB_REF_S = 0.16


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(list(values)))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles (``quantiles`` needs two points).
    """
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def fastest(values: Sequence[float], count: int = 3) -> float:
    """Mean of the ``count`` smallest values (of all of them if there are fewer).

    The estimator of the host metrics: interference only adds time, so the
    fast end of a sample is its stable end.  The box has two speeds and a
    calibration loop falls wholly inside one of them, so a run's loops are
    bimodal, and any fixed quantile of them flips between the modes as the
    share of fast loops crosses it (README, "Calibration").  The fastest
    three are the box's undisturbed speed as long as three of a run's 12–18
    loops met it; their mean does not rest on one loop.
    """
    return float(statistics.mean(sorted(values)[:count]))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample, for the result file."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def calibration_loop(iterations: int = CALIB_ITERATIONS) -> int:
    """The fixed pure-Python work unit: heap push/pop plus dict stores.

    Mirrors what the simulator's hot path does (a heap of tuples, dict
    lookups and stores, small-int arithmetic) so that machine-speed changes
    move it the way they move a slice.  Returns a checksum: the loop is
    deterministic, which ``test_ledger.py`` pins.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    state = 12345
    checksum = 0
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (state, i))
        if len(heap) > 64:
            key, _ = heappop(heap)
            checksum ^= key
        table[state & 1023] = i
    return checksum ^ len(table)


def host_clock() -> float:
    """CPU seconds used so far by this process and the children it waited for.

    The benchmark's host time.  A sharded slice runs three processes on the
    box's two cores, so its wall time measures the scheduler; the CPU time
    of the process tree does not depend on how the processes were
    interleaved.  For the in-process workloads it equals wall time minus
    what a neighbour pre-empted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def calibrate() -> float:
    """CPU seconds one calibration loop takes right now."""
    started = process_time()
    calibration_loop()
    return process_time() - started


def normalise(host_s: Sequence[float], calib_s: Sequence[float]) -> float:
    """A run's host time rescaled to the reference machine speed, in seconds.

    The fastest of the run's five to eight slices: in a burst that covers a
    run there is often one slice that met the undisturbed speed, seldom two.
    """
    return min(host_s) / fastest(calib_s) * CALIB_REF_S

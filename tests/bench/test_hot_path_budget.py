"""Exact-count guard on the ring hop path: Python frames per pinned fig3 run.

Host time is noise on a shared runner; the number of Python-level ``call``
events a deterministic run makes is not — it repeats to the digit for a given
interpreter version.  ``sys.setprofile`` counts them over a short pinned
Figure 3 point, unbatched (one consensus instance per command: the per-hop
protocol code) and batched, and over a short ``kv-global-open`` call (the
ledger's MRP-Store workload: skip ranges, the merge, SMR apply, the swarm
wheel), and the test holds each to a ceiling a few percent above what the
code measured when the ceiling was set.  A helper
call creeping back onto the per-message path (a property, a one-line
forwarder, a result object built to be thrown away) costs ~17 k frames per
site here and turns this red on any machine.

Counts were taken on CPython 3.11.  3.12 inlines comprehensions, which only
lowers them; an interpreter that counts *more* for the same code would need
the ceilings re-read, not the code changed.

    PYTHONPATH=src python tests/bench/test_hot_path_budget.py    # prints every count
"""

from __future__ import annotations

import sys

import pytest

from repro.bench.fig3_baseline import run_fig3_point
from repro.bench.fig4_ycsb import run_fig4_point
from repro.sim.disk import StorageMode
from repro.workloads.arrival import constant


def fig3(**runner_arguments):
    return lambda: run_fig3_point(
        2048, StorageMode.IN_MEMORY, warmup=0.02, duration=0.1, seed=42, **runner_arguments
    )


def kv_global_open():
    run_fig4_point(
        "mrp-store", "A", warmup=0.02, duration=0.1, seed=42, client_engine="swarm",
        simulated_users=100_000, client_mode="open", arrival=constant(24_000.0),
        slo={"gold": 0.020},
    )


#: ``name -> (pinned run, ceiling, measured, count before the hop fast path)`` — for
#: ``kv-global-open`` the last column is the count before the columnar slab.
BUDGETS = {
    "unbatched": (
        fig3(threads_per_proposer=10, batching_enabled=False), 1_550_000, 1_497_033, 2_361_179,
    ),
    "batched": (
        fig3(threads_per_proposer=40, batching_enabled=True), 685_000, 665_528, 856_055,
    ),
    "kv-global-open": (kv_global_open, 402_000, 390_438, 404_550),
}


def count_frames(pinned_run) -> int:
    """Python-level calls made by one pinned run."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        pinned_run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_python_frames_per_pinned_run_stay_under_the_ceiling(name):
    pinned_run, ceiling, measured, _before = BUDGETS[name]
    calls = count_frames(pinned_run)
    assert calls <= ceiling, (
        f"{name}: {calls} Python frames, ceiling {ceiling} (measured {measured} when it was "
        "set): something put a call back on the per-message path"
    )


if __name__ == "__main__":
    for name, (pinned_run, ceiling, measured, before) in BUDGETS.items():
        print(f"{name}: {count_frames(pinned_run)} frames "
              f"(ceiling {ceiling}, measured {measured}, before {before})")

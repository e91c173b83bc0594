"""Regenerate ``tests/golden/exact.json`` from the code as it stands.

    PYTHONPATH=src python -m tests.golden.repin            # rewrite the file
    PYTHONPATH=src python -m tests.golden.repin --check    # compare, name the first drift

The runs are the tests' own (``tests/sim/test_kernel_fastpath.py``,
``tests/bench/test_hot_path_budget.py``,
``tests/core/test_reactive_host_faults.py``, ``tests/sim/test_wire_codec.py``,
``tests/bench/test_figure_runners.py``), so a golden and the test that reads
it cannot drift apart.  Re-pin only in a PR that says which modelled
behaviour moved.
"""

from __future__ import annotations

import json
import sys

from tests import golden
from tests.bench import test_figure_runners as figures
from tests.bench import test_hot_path_budget as budget
from tests.core import test_reactive_host_faults as reactive
from tests.sim import test_kernel_fastpath as stack
from tests.sim import test_wire_codec as wire


def compute() -> dict:
    return {
        "stack": {str(s): golden.digest(stack._run_stack(s)) for s in stack.STACK_SEEDS},
        "faulted_stack": {str(s): stack._faulted_stack_exact(s) for s in stack.FAULT_SEEDS},
        "network_times": golden.digest(stack._run_network_times()),
        "pinned_runs": {name: budget.measured(name)[1] for name in sorted(budget.BUDGETS)},
        "reactive_latency": reactive.stalled_fig6_latency(),
        "wire_fig6_shared": wire.wire_counts(wire.fig6_shared_point()),
        "figure_points": figures.figure_points(),
    }


def first_difference(pinned, fresh, path=""):
    """Dotted path of the first key whose value differs (``None`` when equal)."""
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        for key in sorted(set(pinned) | set(fresh)):
            found = first_difference(pinned.get(key), fresh.get(key), f"{path}.{key}".lstrip("."))
            if found:
                return found
        return None
    return None if pinned == fresh else f"{path}: pinned {pinned!r}, now {fresh!r}"


def main(argv) -> int:
    fresh = compute()
    if "--check" in argv:
        drift = first_difference(golden.load(), fresh)
        print(f"golden drift at {drift}" if drift else "goldens reproduce exactly")
        return 1 if drift else 0
    golden.PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {golden.PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

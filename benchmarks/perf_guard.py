#!/usr/bin/env python
"""Performance guard: fail when the barrier plane's deterministic numbers regress.

Compares a freshly written ``BENCH_parallel.json`` against its committed
baseline (``git show <ref>:BENCH_parallel.json``, default ``HEAD``) and exits
non-zero on a regression.  IPC byte counts are fixed by the seed, not the
machine, so the ceiling is tight (+20% headroom covers intentional protocol
growth, nothing else) and the invariants are exact:

* ``barrier_overhead.wire_codec.ipc_bytes_per_barrier`` must stay at or
  below baseline * 1.20 (a *ceiling* — lower is better);
* ``barrier_overhead.ipc_bytes_reduction`` must stay >= 0.30 (the compact
  codec's acceptance bar vs legacy pickling);
* ``barrier_count.adaptive`` must stay strictly below ``barrier_count.fixed``
  (adaptive horizons earn their keep);
* ``skip_windows.worker_windows_skipped`` must stay > 0 (horizon-aware
  scheduling actually skips the idle worker).

Fields missing from the committed baseline are skipped gracefully, so the
guard works on the PR that introduces them.  Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke
    python benchmarks/perf_guard.py

Kernel and hot-path speed is not guarded here: its exact guard is
``tests/golden/exact.json`` + ``tests/bench/test_hot_path_budget.py`` (events
per pinned run, Python frames), its measurement the ledger benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, Optional, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

#: Ceiling-guarded deterministic metrics of BENCH_parallel.json:
#: (json path, human label).  Lower is better; current must stay at or below
#: baseline * (1 + TOLERANCE).
PARALLEL_CEILINGS = (
    (
        ("barrier_overhead", "wire_codec", "ipc_bytes_per_barrier"),
        "wire-codec IPC bytes per barrier (fig6 smoke point)",
    ),
)

#: Maximum tolerated rise above baseline.
TOLERANCE = 0.20

#: The codec's acceptance bar: IPC bytes per barrier vs legacy pickling.
MIN_CODEC_REDUCTION = 0.30


def _dig(payload: Dict[str, Any], path: Tuple[str, ...]) -> Optional[float]:
    node: Any = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _committed_baseline(ref: str, name: str) -> Optional[Dict[str, Any]]:
    try:
        out = subprocess.run(
            ["git", "show", f"{ref}:{name}"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            check=True,
        ).stdout
        return json.loads(out)
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError):
        return None


def _guard_parallel(args: argparse.Namespace) -> bool:
    """Guard BENCH_parallel.json's deterministic fields; True on failure.

    A baseline without the round-2 fields skips the ceiling — the invariants
    below still run, because they need no baseline at all.
    """
    with open(args.parallel) as fh:
        current = json.load(fh)

    failed = False
    baseline = _committed_baseline(args.baseline, "BENCH_parallel.json")
    for path, label in PARALLEL_CEILINGS:
        cur = _dig(current, path)
        base = _dig(baseline, path) if baseline else None
        name = ".".join(path)
        if cur is None or base is None:
            print(f"perf-guard: {name}: missing on one side (base={base}, current={cur}); skipping")
            continue
        ceiling = base * (1.0 + TOLERANCE)
        verdict = "ok" if cur <= ceiling else "REGRESSED"
        print(
            f"perf-guard: {label}: current {cur:,.1f} vs baseline {base:,.1f} "
            f"(ceiling {ceiling:,.1f}) -> {verdict}"
        )
        if cur > ceiling:
            failed = True

    reduction = _dig(current, ("barrier_overhead", "ipc_bytes_reduction"))
    if reduction is not None:
        verdict = "ok" if reduction >= MIN_CODEC_REDUCTION else "REGRESSED"
        print(
            f"perf-guard: wire-codec IPC reduction vs legacy: {reduction:.1%} "
            f"(minimum {MIN_CODEC_REDUCTION:.0%}) -> {verdict}"
        )
        if reduction < MIN_CODEC_REDUCTION:
            failed = True

    adaptive = _dig(current, ("barrier_count", "adaptive"))
    fixed = _dig(current, ("barrier_count", "fixed"))
    if adaptive is not None and fixed is not None:
        verdict = "ok" if adaptive < fixed else "REGRESSED"
        print(
            f"perf-guard: adaptive barriers {adaptive:,.0f} vs fixed "
            f"{fixed:,.0f} (must be strictly fewer) -> {verdict}"
        )
        if adaptive >= fixed:
            failed = True

    skipped = _dig(current, ("skip_windows", "worker_windows_skipped"))
    if skipped is not None:
        verdict = "ok" if skipped > 0 else "REGRESSED"
        print(
            f"perf-guard: skipped idle-worker windows: {skipped:,.0f} "
            f"(must be > 0) -> {verdict}"
        )
        if skipped <= 0:
            failed = True

    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default="HEAD", help="git ref holding the baseline BENCH_parallel.json"
    )
    parser.add_argument(
        "--parallel",
        default=os.path.join(REPO_ROOT, "BENCH_parallel.json"),
        help="path of the freshly written parallel benchmark file",
    )
    args = parser.parse_args()
    try:
        return 1 if _guard_parallel(args) else 0
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perf-guard: cannot read {args.parallel}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of one ledger workload, with the verdict.

A performance claim in this repo is accepted by the rule of the
choosing-metrics guide: at least ten pairs of runs, parent and change
alternating which goes first, the change winning at least nine tenths of
them, and the medians apart by more than the distance between the parent's
own quartiles.  This script runs the pairs and prints that verdict, plus what
a pure speed-up must leave alone: every simulated metric exactly equal, no
more failed operations.  After the pairs it takes one traced run
(``--trace 1``) per side and prints every layer's ``self_s`` side by side,
so the verdict names the layer that moved::

    python3 benchmarks/ab_pairs.py --parent ../parent-checkout --workload ring-unbatched
    python3 benchmarks/ab_pairs.py --parent-ref HEAD~1 --workload kv-global-open --seed 7 --pairs 3

Each side is a checkout with its own ``benchmarks/ledger/run.py`` (the change
defaults to the checkout this file lives in; ``--parent-ref`` unpacks a git
ref with ``git archive`` into a temporary directory).  One ledger run at a
time, never two at once: the runs pin themselves to one core of a small box.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
# The ledger's own order statistics, so both report the same quartiles.
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))
from ledger_stats import median, quartiles  # noqa: E402

#: The metric a performance claim in this repo is usually made on (``--metric``).
METRIC = "commands_per_host_s"


def unpack_ref(ref: str, into: Path) -> Path:
    """A copy of the committed files of ``ref`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def ledger_run(checkout: Path, workload: str, seed: int, seconds: float, out: Path,
               trace: str = "0") -> Dict[str, Any]:
    """One ledger run in ``checkout`` (untraced unless ``trace="1"``); its closing JSON line.

    Its files (Chrome traces, the ledger record) go to ``out``, never into
    the checkout's ``benchmarks/ledger/``.
    """
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace, "--out", str(out)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"ab_pairs: no result line from {checkout} (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    result["exit"] = done.returncode
    return result


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, Any]:
    """The choosing-metrics rule over paired samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    q1, q3 = quartiles(parent)
    gap = sign * (median(change) - median(parent))
    return {
        "pairs": len(parent),
        "won": wins,
        "ties": ties,
        "parent_median": median(parent),
        "parent_q1_q3": (q1, q3),
        "change_median": median(change),
        "change_q1_q3": quartiles(change),
        "ratio": median(change) / median(parent),
        "enough_pairs": len(parent) >= 10,
        "wins_nine_tenths": wins * 10 >= 9 * len(parent),
        "beyond_parent_spread": gap > (q3 - q1),
    }


def exact_differences(runs: Sequence[Dict[str, Any]], contract: Dict[str, Any]) -> List[str]:
    """Simulated metrics that are not equal across every run, and failures."""
    problems = []
    for entry in contract["end_to_end"]:
        name = entry["name"]
        if not (name.startswith("sim_") or name == "events_per_command"):
            continue  # a host metric: compared to its bound, not for equality
        seen = {run["metrics"].get(name) for run in runs}
        if len(seen) != 1:
            problems.append(f"{name} differs: {sorted(seen, key=repr)}")
    if any(run["failed"] for run in runs):
        problems.append(f"failed operations: {[run['failed'] for run in runs]}")
    if any(not run["correct"] or run["exit"] for run in runs):
        problems.append("a run failed its correctness checks")
    return problems


def bound_report(runs: Dict[str, List[Dict[str, Any]]], contract: Dict[str, Any]) -> List[str]:
    """Every end-to-end metric's medians, and whether the change is within its bound."""
    lines = []
    for entry in contract["end_to_end"]:
        name = entry["name"]
        parent, change = (
            median(run["metrics"][name] for run in runs[side])
            for side in ("parent", "change")
        )
        worse = (parent - change if entry["better"] == "higher" else change - parent)
        worse = worse / parent if parent else 0.0
        status = "ok" if worse <= entry["bound"] else f"WORSE by more than {entry['bound']:.0%}"
        lines.append(f"  {name:22s} parent {parent:<12.6g} change {change:<12.6g} "
                     f"{0.0 - worse:+.1%} better  {status}")
    return lines


def layer_report(parent: Dict[str, Any], change: Dict[str, Any]) -> List[str]:
    """Each layer's ``self_s`` in one traced run per side, and the layer that moved most.

    Self times of all layers sum to the traced slice, so a speed-up shows
    as the layers whose own code got cheaper; one traced run per side is a
    pointer to where the gain came from, not a second measurement of it.
    """
    suffix = ".self_s"
    layers = [name[: -len(suffix)] for name in parent["metrics"] if name.endswith(suffix)]
    lines = [f"  {'layer':20s} {'parent self_s':>14s} {'change self_s':>14s} {'change':>8s}"]
    moved: Optional[str] = None
    largest = 0.0
    for layer in layers:
        p = parent["metrics"][layer + suffix]
        c = change["metrics"].get(layer + suffix, 0.0)
        relative = f"{(c - p) / p:+.1%}" if p else "-"
        lines.append(f"  {layer:20s} {p:14.4f} {c:14.4f} {relative:>8s}")
        if abs(c - p) > largest:
            moved, largest = layer, abs(c - p)
    if moved is not None:
        delta = change["metrics"].get(moved + suffix, 0.0) - parent["metrics"][moved + suffix]
        lines.append(f"  layer that moved most: {moved} ({delta:+.4f} s self time)")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", type=Path, help="checkout of the parent commit")
    side.add_argument("--parent-ref", help="git ref to unpack as the parent")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42, help="7 is the held-out seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default=METRIC,
                        help="end-to-end metric the verdict is about (e.g. peak_rss_mb)")
    parser.add_argument("--record", type=Path, help="write every run's result line here (JSON)")
    args = parser.parse_args(argv)

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    metric = args.metric
    entry = next(e for e in contract["end_to_end"] if e["name"] == metric)
    seconds = float(contract["run_seconds"])

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as scratch, \
            tempfile.TemporaryDirectory(prefix="ab-out-") as out:
        parent = args.parent or unpack_ref(args.parent_ref, Path(scratch))
        sides = {"parent": parent.resolve(), "change": args.change.resolve()}
        runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                runs[name].append(
                    ledger_run(sides[name], args.workload, args.seed, seconds, Path(out))
                )
            p, c = (runs[name][-1]["metrics"][metric] for name in ("parent", "change"))
            print(f"pair {pair + 1:2d} ({order[0]} first): parent {p:.6g}  change {c:.6g}  "
                  f"ratio {c / p:.3f}", flush=True)
        traced = {
            name: ledger_run(sides[name], args.workload, args.seed, seconds, Path(out), trace="1")
            for name in ("parent", "change")
        }

    values = {name: [run["metrics"][metric] for run in runs[name]] for name in runs}
    result = verdict(values["parent"], values["change"], entry["better"])
    problems = exact_differences(runs["parent"] + runs["change"], contract)
    unit = entry["unit"]
    print(f"\n{args.workload} seed {args.seed} {metric} [{unit}], {result['pairs']} pairs")
    for name in ("parent", "change"):
        q1, q3 = result[f"{name}_q1_q3"]
        print(f"  {name:6s} median {result[f'{name}_median']:.6g}  quartiles [{q1:.6g}, {q3:.6g}]")
    print(f"  change/parent (medians) {result['ratio']:.3f}; pairs won {result['won']}/"
          f"{result['pairs']} (ties {result['ties']})")
    print(f"  rule: >= 10 pairs {result['enough_pairs']}, >= 9/10 won "
          f"{result['wins_nine_tenths']}, medians apart by more than the parent's "
          f"inter-quartile distance {result['beyond_parent_spread']}")
    met = result["enough_pairs"] and result["wins_nine_tenths"] and result["beyond_parent_spread"]
    print(f"  gain may be claimed: {met and not problems}")
    print("\n".join(bound_report(runs, contract)))
    print("  simulated metrics identical on all runs, nothing failed: "
          + ("yes" if not problems else "NO - " + "; ".join(problems)))
    print("\nper-layer self time, one --trace 1 run per side [s]")
    print("\n".join(layer_report(traced["parent"], traced["change"])))
    if args.record:
        args.record.write_text(json.dumps({"args": vars(args), "verdict": result,
                                           "problems": problems, "runs": runs,
                                           "traced": traced},
                                          default=str, indent=1))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

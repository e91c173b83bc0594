#!/usr/bin/env python3
"""The ledger benchmark: four figure points, measured end to end and by layer.

One run of one workload (what ``BENCHMARK.json``'s command makes)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and unit, checks the outputs, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics from untraced slices with ``--trace 0``, the per-layer metrics from a
separate traced run with ``--trace 1``.  Without ``--workload`` it runs all
four workloads, each phase in its own fresh interpreter, and writes
``ledger.json`` under ``--out``; ``--selfcheck`` builds two ledgers, each
from three untraced runs per workload, and compares their medians against the
bounds.  README.md explains every choice.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

# The script's directory is sys.path[0]; neither module imports ``repro``.
import ledger_stats as stats
from ledger_spans import LAYERS, Tracer

PROCESS_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s`` in one run (the median is reported).
SETUP_PROBES = 5
#: Calibration loops before the first slice and after every slice.  Two halve
#: the spread of the normalised metrics for 6 % more run time (README).
CALIBRATION_LOOPS = 2
#: Untraced reference slices a traced run takes first (overhead, events/s).
REFERENCE_SLICES = 2
#: A slice this many times slower than the run's median marks a noisy neighbour.
NOISY_FACTOR = 1.5
#: Untraced runs per workload in each ledger of the self-check; their medians
#: are compared, so one run caught in a burst (a minute of 1.4x slower slices
#: that the calibration loop barely sees) does not fail the check.
SELFCHECK_REPEATS = 3
#: Scale of the simulated windows in ``--smoke`` mode (one slice, one probe).
SMOKE_SCALE = 0.05


def _bootstrap() -> None:
    """Make ``repro`` importable (``ledger_workloads`` needs it)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"ledger: {SRC / 'repro'} not found - run from a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, bounds and run length."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def cores_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@contextmanager
def one_core() -> Iterator[Optional[int]]:
    """Confine this process, and every child it starts, to one of its cores.

    The end-to-end phase runs like this: the calibration loops then meet the
    same core, in the same state, as the slices they normalise — on two
    cores a sharded slice used both and each loop sampled one of them at
    random (README, "Calibration").  Yields the core, or None where the
    platform has no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):  # not Linux
        yield None
        return
    allowed = os.sched_getaffinity(0)
    core = min(allowed)
    os.sched_setaffinity(0, {core})
    try:
        yield core
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------

class Harness:
    """Runs calibrated slices of one workload and reads each of them."""

    def __init__(self, workload: Any, seed: int, scale: float) -> None:
        from ledger_workloads import Observer

        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.observer = Observer()
        self.observer.install()
        self.problems: List[str] = []
        #: every calibration loop of the run, in seconds
        self.calibrations: List[float] = []

    def warm_up(self) -> None:
        """The probe call once in this process: imports and lazy set-up."""
        self.workload.probe(self.seed)
        self.observer.reset()

    def _calibrate(self) -> None:
        self.calibrations.extend(stats.calibrate() for _ in range(CALIBRATION_LOOPS))

    def normalised(self, host_s: Sequence[float]) -> float:
        """Host times of this run's slices at the reference machine speed."""
        return stats.normalise(host_s, self.calibrations)

    def slice(self, call: Callable[[], Any],
              snapshot: Optional[Callable[[], Dict[str, Any]]] = None) -> Dict[str, Any]:
        """One timed call, the calibration loops, then the slice's reading.

        ``host_s`` is the CPU time of the call in this process and the
        workers it started and joined, ``wall_s`` its wall time.

        ``snapshot`` is taken the moment the call returns — before the
        reading, which may run the deployment further (the traced run
        passes the span recorder's aggregates).
        """
        gc.collect()
        if not self.calibrations:
            self._calibrate()
        started, host_started = perf_counter(), stats.host_clock()
        result = call()
        host_s = stats.host_clock() - host_started
        wall_s = perf_counter() - started
        snapped = snapshot() if snapshot is not None else {}
        self._calibrate()
        build_s = (self.observer.first_start or started) - started
        reading = self.workload.read(result, self.observer)
        self.observer.reset()
        del result
        self.problems.extend(reading.problems)
        return {
            "host_s": host_s,
            "wall_s": wall_s,
            "build_s": build_s,
            "exact": reading.exact,
            "host": reading.host,
            **snapped,
        }

    def check_identical(self, slices: Sequence[Dict[str, Any]], what: str) -> Dict[str, float]:
        """Same seed, same call: simulated metrics and counts must repeat exactly."""
        first = slices[0]["exact"]
        for index, other in enumerate(slices[1:], start=2):
            if other["exact"] != first:
                differing = sorted(
                    k for k in set(first) | set(other["exact"])
                    if first.get(k) != other["exact"].get(k)
                )
                self.problems.append(f"{what} slice {index} differs from slice 1 in {differing}")
        return first

    def close(self) -> None:
        self.observer.uninstall()


def measure_setup(name: str, seed: int, probes: int) -> Dict[str, Any]:
    """CPU time of ``probes`` fresh interpreters doing imports + the probe call.

    A probe is ≈0.3 s of CPU, so it is normalised by calibration loops run
    right around it, not by the ones the slices take seconds later.
    """
    host_s = []
    command = [sys.executable, str(HERE / "run.py"), "--probe", name, "--seed", str(seed)]
    calibrations = [stats.calibrate()]
    for _ in range(probes):
        started = stats.host_clock()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        host_s.append(stats.host_clock() - started)
        calibrations.append(stats.calibrate())
    return {
        "setup_s": stats.normalise(host_s, calibrations),
        "raw_s_values": host_s,
        "calib_s_values": calibrations,
    }


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------

def run_untraced(workload: Any, args: argparse.Namespace, core: Optional[int]) -> Dict[str, Any]:
    """End-to-end metrics: untraced slices for ``--seconds`` seconds on ``core``."""
    smoke = args.smoke
    setup = measure_setup(workload.name, args.seed, 1 if smoke else SETUP_PROBES)
    harness = Harness(workload, args.seed, SMOKE_SCALE if smoke else 1.0)
    harness.warm_up()
    first_slice_at = perf_counter() - PROCESS_START
    slices = []
    began = perf_counter()
    while not slices or (not smoke and perf_counter() - began < args.seconds):
        slices.append(harness.slice(lambda: workload.call(args.seed, harness.scale)))
    exact = harness.check_identical(slices, "untraced")
    if not smoke:
        harness.problems.extend(workload.verify(args.seed))
    harness.close()

    raw = [s["host_s"] for s in slices]
    commands = exact["commands"]
    metrics = {
        "commands_per_host_s": commands / harness.normalised(raw),
        "events_per_command": exact["events"] / commands,
        "sim_throughput_ops": exact["sim_throughput_ops"],
        "sim_latency_p50_ms": exact["sim_latency_p50_ms"],
        "sim_latency_p99_ms": exact["sim_latency_p99_ms"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup["setup_s"],
    }
    detail = {
        "slices": len(slices),
        "pinned_to_core": core,
        "slice_host_s": stats.summary(raw),
        "slice_host_s_values": raw,
        "slice_wall_s_values": [s["wall_s"] for s in slices],
        "calib_s": stats.summary(harness.calibrations),
        "calib_s_values": harness.calibrations,
        "setup": setup,
        "first_slice_after_s": first_slice_at,
        "noisy_neighbour": max(raw) > NOISY_FACTOR * stats.median(raw),
        "raw_commands_per_host_s": commands / stats.median(raw),
        "commands": commands,
        "events": exact["events"],
        "latency_samples": exact["latency_samples"],
        "failed_fraction": exact["ops_failed"] / exact["ops_attempted"],
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": int(exact["ops_attempted"]) * len(slices),
        "failed": int(exact["ops_failed"]) * len(slices),
        "problems": harness.problems,
    }


def run_traced(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Per-layer metrics: reference slices, then traced slices with spans."""
    smoke = args.smoke
    sharded = workload.workers > 1
    harness = Harness(workload, args.seed, SMOKE_SCALE if smoke else 1.0)
    harness.warm_up()
    began = perf_counter()
    n_ref = 1 if smoke else REFERENCE_SLICES

    # Untraced references.
    own = [harness.slice(lambda: workload.call(args.seed, harness.scale)) for _ in range(n_ref)]
    harness.check_identical(own, "reference")
    # The traced call runs in-process (workers=1).  Where that is not the
    # workload's own call, its untraced twin is the base of the overhead
    # ratio and of speedup_vs_w1.
    twin = own
    if sharded:
        twin = [harness.slice(lambda: workload.call(args.seed, harness.scale, workers=1))
                for _ in range(n_ref)]
        harness.check_identical(twin, "workers=1 reference")

    harness.observer.hash_deliveries = workload.checks_delivery_order
    tracer = Tracer()
    recorder = tracer.recorder
    traced_call = recorder.wrap(
        "bench", "bench:slice", lambda: workload.call(args.seed, harness.scale, workers=1))

    def aggregates() -> Dict[str, Any]:
        return {
            "layers": recorder.layer_metrics(),
            "self_total_s": sum(recorder.self_s),
            "network_bytes": recorder.network_bytes,
            "cursor_deliveries": recorder.cursor_deliveries,
            "spans": recorder.spans,
        }

    traced = []
    tracer.install()
    try:
        while not traced or (not smoke and perf_counter() - began < args.seconds):
            recorder.reset()
            traced.append(harness.slice(traced_call, snapshot=aggregates))
    finally:
        tracer.uninstall()
    # The recorder still holds the last traced slice's raw spans.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload.name}.trace.json", "w", encoding="utf-8") as handle:
        json.dump(recorder.chrome_trace(), handle)
    layer_rows = [row["layers"] for row in traced]
    coverage = [row["self_total_s"] / row["wall_s"] for row in traced]
    exact = harness.check_identical(traced, "traced")
    if not smoke:
        harness.problems.extend(workload.verify(args.seed))
    harness.close()
    if abs(stats.median(coverage) - 1.0) > 0.02:
        harness.problems.append(
            f"layer self times cover {stats.median(coverage):.3f} of the traced slice")
    for key in ("commands", "events", "sim_latency_p50_ms", "sim_latency_p99_ms"):
        if exact[key] != twin[0]["exact"][key]:
            harness.problems.append(f"tracing changed {key}")

    commands = exact["commands"]
    last = traced[-1]
    metrics = {name: stats.median([row[name] for row in layer_rows]) for name in layer_rows[0]}
    payload = exact["ring.instances"] - exact["ring.skip_instances"]
    own_norm = harness.normalised([s["host_s"] for s in own])
    # Spans, the tracing overhead and the speed-up of two workers are wall time.
    own_raw = stats.median([s["wall_s"] for s in own])
    twin_raw = stats.median([s["wall_s"] for s in twin])
    metrics.update({
        "sim.kernel.events": exact["events"],
        "sim.kernel.events_per_host_s": own[0]["exact"]["events"] / own_norm,
        "sim.network.sends_per_command": metrics["sim.network.calls"] / commands,
        "sim.network.bytes_per_command": last["network_bytes"] / commands,
        "ringpaxos.instances": exact["ring.instances"],
        "ringpaxos.commands_per_instance": exact["ring.commands"] / payload,
        "ringpaxos.skip_fraction": exact["ring.skip_instances"] / exact["ring.instances"],
        "sim.disk.writes_per_command": exact["layer.disk_writes"] / commands,
        "sim.disk.bytes_per_command": exact["layer.disk_bytes"] / commands,
        "multiring.merge.deliveries": exact["layer.merge_deliveries"] + last["cursor_deliveries"],
        "core.smr.commands_applied": exact["layer.commands_applied"],
        "core.swarm.issued": exact["layer.swarm_issued"],
        "bench.build_s": stats.median([s["build_s"] for s in twin]),
        "bench.calib_s": stats.median(harness.calibrations),
        "bench.raw_commands_per_host_s": own[0]["exact"]["commands"] / own_raw,
        "bench.failed_fraction": exact["ops_failed"] / exact["ops_attempted"],
        "trace.overhead_ratio": stats.median([s["wall_s"] for s in traced]) / twin_raw,
        "trace.hooks_missing": float(len(tracer.missing)),
        "trace.spans": float(last["spans"]),
        "sim.parallel.cores_available": float(cores_available()),
    })
    # Barrier-plane numbers come from the untraced workers=2 slices; the
    # in-process workloads never enter sim.parallel and report zeros.
    plane = {key: stats.median([s["host"].get(key, 0.0) for s in own])
             for key in ("ipc_bytes", "ipc_messages", "merge_stage_s",
                         "merge_overlap_fraction", "shard_wall_clock_s",
                         "worker_windows_skipped")}
    metrics.update({
        "sim.parallel.barriers": own[0]["exact"].get("barriers", 0.0),
        "sim.parallel.ipc_bytes_per_command": plane["ipc_bytes"] / commands,
        "sim.parallel.ipc_messages": plane["ipc_messages"],
        "sim.parallel.merge_stage_s": plane["merge_stage_s"],
        "sim.parallel.merge_overlap_fraction": plane["merge_overlap_fraction"],
        "sim.parallel.shard_wall_s": plane["shard_wall_clock_s"],
        "sim.parallel.worker_windows_skipped": plane["worker_windows_skipped"],
        "sim.parallel.speedup_vs_w1": twin_raw / own_raw if sharded else 0.0,
    })
    detail = {
        "traced_slices": len(traced),
        "reference_slices": n_ref,
        "self_time_coverage": stats.median(coverage),
        "hooks_missing": tracer.missing,
        "calib_s": stats.summary(harness.calibrations),
        "layers": list(LAYERS),
        "delivery_digest": exact.get("delivery_digest"),
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": int(exact["ops_attempted"]) * len(traced),
        "failed": int(exact["ops_failed"]) * len(traced),
        "problems": harness.problems,
    }


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "cores_available": cores_available(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_workload(args: argparse.Namespace) -> int:
    """The contract entry point: one workload, untraced, traced or both."""
    _bootstrap()
    from ledger_workloads import workload_named

    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    workload = workload_named(args.workload)
    phases = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    print(f"# ledger  workload={workload.name}  seed={args.seed}  seconds={args.seconds}"
          f"  trace={args.trace}{'  SMOKE' if args.smoke else ''}")
    print(f"# why: {workload.why}")
    print(f"# load: {workload.loop} (simulated generator: it is never late)")
    environment = fingerprint(args)
    print(f"# host: {json.dumps(environment)}")
    record: Dict[str, Any] = {"workload": workload.name, "environment": environment}
    line: Dict[str, Any] = {}
    for phase in phases:
        declared = contract["per_layer" if phase else "end_to_end"]
        if phase:
            outcome = run_traced(workload, args)
        else:
            with one_core() as core:
                outcome = run_untraced(workload, args, core)
        values = outcome["metrics"]
        print(f"# {'per-layer (traced run)' if phase else 'end-to-end (untraced run)'}")
        for spec in declared:
            print(f"{spec['name']:42s} {values[spec['name']]!r:>24} {spec['unit']}")
        for key, value in outcome["detail"].items():
            print(f"#   {key}: {json.dumps(value)}")
        print(f"#   ops_attempted: {outcome['attempted']}  ops_failed: {outcome['failed']}")
        for problem in outcome["problems"]:
            print(f"# INCORRECT: {problem}")
        record["traced" if phase else "untraced"] = outcome
        line = {
            "correct": not outcome["problems"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                for spec in declared
            },
        }
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    correct = all(not record[k]["problems"] for k in ("untraced", "traced") if k in record)
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The whole ledger, and the self-check
# ---------------------------------------------------------------------------

def run_ledger(args: argparse.Namespace, out_dir: Path, repeats: int = 1) -> Dict[str, Any]:
    """Every workload, each phase in its own fresh interpreter, in sequence.

    With ``repeats`` > 1 the untraced phase runs that many times; the
    entry keeps the last run and ``end_to_end_median`` across all of them.
    """
    contract = load_contract()
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger: Dict[str, Any] = {"workloads": {}, "correct": True}
    for spec in contract["workloads"]:
        name = spec["name"]
        entry: Dict[str, Any] = {}
        untraced_runs: List[Dict[str, float]] = []
        for phase in ["0"] * repeats + ["1"]:
            record = out_dir / f"{name}.trace{phase}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--trace", phase, "--out", str(out_dir),
                "--record", str(record),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            status = subprocess.run(command).returncode
            if not record.is_file():
                raise SystemExit(f"ledger: {name} --trace {phase} exited {status} without a record")
            with open(record, encoding="utf-8") as handle:
                entry.update(json.load(handle))
            if phase == "0":
                untraced_runs.append(entry["untraced"]["metrics"])
            ledger["correct"] = ledger["correct"] and status == 0
        entry["end_to_end_median"] = {
            metric: stats.median([run[metric] for run in untraced_runs])
            for metric in untraced_runs[0]
        }
        ledger["workloads"][name] = entry
    with open(out_dir / "ledger.json", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"# ledger written to {out_dir / 'ledger.json'}  correct={ledger['correct']}")
    return ledger


def selfcheck(args: argparse.Namespace) -> int:
    """Two complete ledgers of the same code must agree within the bounds."""
    contract = load_contract()
    first = run_ledger(args, Path(args.out) / "selfcheck-1", SELFCHECK_REPEATS)
    second = run_ledger(args, Path(args.out) / "selfcheck-2", SELFCHECK_REPEATS)
    failures = 0
    print(f"# medians of {SELFCHECK_REPEATS} untraced runs per workload and ledger")
    print(f"{'workload':18s} {'metric':22s} {'set 1':>14s} {'set 2':>14s} {'diff':>8s} {'bound':>6s}")
    for spec in contract["workloads"]:
        name = spec["name"]
        for metric in contract["end_to_end"]:
            a = first["workloads"][name]["end_to_end_median"][metric["name"]]
            b = second["workloads"][name]["end_to_end_median"][metric["name"]]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= metric["bound"]
            failures += not ok
            print(f"{name:18s} {metric['name']:22s} {a:14.6g} {b:14.6g} {worse:+8.2%} "
                  f"{metric['bound']:6.0%}{'' if ok else '  EXCEEDED'}")
    correct = first["correct"] and second["correct"]
    print(f"# selfcheck: {failures} metric(s) outside their bound; outputs correct={correct}")
    return 0 if not failures and correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (7 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics, 1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for ledger.json and the Chrome trace files")
    parser.add_argument("--record", help="also write this run's full record to this file")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two ledgers of three untraced runs per workload, medians compared to the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="one short slice per phase: checks the plumbing, not the numbers")
    parser.add_argument("--probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _bootstrap()
        from ledger_workloads import workload_named
        workload_named(args.probe).probe(args.seed)
        return 0
    if args.workload:
        return run_workload(args)
    if args.selfcheck:
        return selfcheck(args)
    return 0 if run_ledger(args, Path(args.out))["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

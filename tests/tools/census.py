"""Reachability census: every function of ``src/repro`` is run by a runner or
carries a written reason.

    PYTHONPATH=src python -m tests.tools.census            # run the entry points, check
    PYTHONPATH=src python -m tests.tools.census --list     # also list every unreached function

The census runs the repository's real entry points in this process under
``cProfile`` and records every code object they call:

* the five examples, as ``python examples/<name>.py`` runs them;
* the ledger workloads at ``--smoke`` size: each slice, its reading, the
  traced form (``workers=1``) and the workload's differential check;
* every figure-point runner at short windows, the sharded Figure 6 one at
  two workers (once with a crash schedule), ``run_fig8``, and the figure
  reports the benchmark files print;
* the documented wire replay (``benchmarks/wire_replay.py``);
* chaos seeds through ``repro.chaos.scenario.main``, single-process and at
  ``--workers 2``.

Forked workers are followed: ``os._exit`` is wrapped so a worker dumps its
profile before it leaves, and its calls count as reached.  The profiler starts
before ``repro`` is imported, so what runs at import time counts too.

A *function* is a ``def`` at module level or in a class body; closures and
lambdas belong to the function that defines them.  Every function no entry
point calls must be listed in :data:`tests.tools.allowlist.ALLOWLIST` with one
reason from :data:`REASONS` (or ``future: item N``).  The run fails, naming
each, on an unreached function that is not listed, on a listed function that
is now reached or no longer exists, and on a listed reason that is not a
known one.  It prints the unreached lines per module and the allowlist per
reason either way.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import os
import pstats
import re
import runpy
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
PACKAGE_DIR = ROOT / "src" / "repro"

#: Why a function may stay although no runner calls it.
REASONS = (
    "fault-path",       # runs only on a failure no runner injects
    "size-triggered",   # runs only past a size threshold the runners stay below
    "worker-only",      # runs only inside a worker process that cannot be followed
    "test-reference",   # a test's reference or anchor calls it
    "interface",        # an abstract base's method, overridden by every subclass
)
_FUTURE = re.compile(r"future: item \d+(\([a-z]\))?")


def known_reason(reason: str) -> bool:
    return reason in REASONS or _FUTURE.fullmatch(reason) is not None


# ---------------------------------------------------------------------------
# What is defined
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSite:
    """One ``def``: its dotted name and where its code object starts."""

    name: str
    module: str
    path: str
    first: int      # first line, decorators included (the code object's co_firstlineno)
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _statements(body: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of one scope, looking through ``if``/``try``/``with``."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for part in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(node, part, ()))
            for handler in getattr(node, "handlers", ()):
                yield from _statements(handler.body)
        else:
            yield node


def _sites_in(body: Iterable[ast.stmt], module: str, prefix: str, path: str) -> Iterator[FunctionSite]:
    taken: Dict[str, int] = {}
    for node in _statements(body):
        if isinstance(node, ast.ClassDef):
            yield from _sites_in(node.body, module, f"{prefix}.{node.name}", path)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{node.name}"
            accessors = [d.attr for d in node.decorator_list
                         if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")]
            if accessors:
                name += f".{accessors[0]}"
            taken[name] = taken.get(name, 0) + 1
            if taken[name] > 1:
                name += f"#{taken[name]}"
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield FunctionSite(name, module, path, first, node.end_lineno or node.lineno)


def defined_functions(package_dir: Path = PACKAGE_DIR, package: str = "repro") -> List[FunctionSite]:
    """Every module- or class-level ``def`` under ``package_dir``."""
    sites: List[FunctionSite] = []
    for path in sorted(Path(package_dir).rglob("*.py")):
        parts = [package, *path.relative_to(package_dir).with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites.extend(_sites_in(tree.body, module, module, os.path.realpath(path)))
    return sites


# ---------------------------------------------------------------------------
# What is reached, and the verdict
# ---------------------------------------------------------------------------

def reached_code(stats_keys: Iterable[Tuple[str, int, str]]) -> Set[Tuple[str, int]]:
    """``(real path, first line)`` of every profiled code object."""
    return {(os.path.realpath(filename), line) for filename, line, _name in stats_keys}


@dataclass
class Findings:
    sites: List[FunctionSite]
    reached: List[FunctionSite] = field(default_factory=list)
    allowed: List[Tuple[FunctionSite, str]] = field(default_factory=list)
    unreached: List[FunctionSite] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)
    gone: List[str] = field(default_factory=list)
    unknown_reasons: List[Tuple[str, str]] = field(default_factory=list)

    def problems(self) -> List[str]:
        """One line per failure, each naming its function."""
        return (
            [f"UNREACHED {s.name} ({s.lines} lines, {s.path}:{s.first}): no entry point "
             f"calls it - delete it, or allowlist it with a reason" for s in self.unreached]
            + [f"STALE {name}: allowlisted but an entry point reaches it - drop the entry"
               for name in self.stale]
            + [f"GONE {name}: allowlisted but no such function - drop the entry"
               for name in self.gone]
            + [f"REASON {name}: {reason!r} is not one of {', '.join(REASONS)}, "
               f"'future: item N'" for name, reason in self.unknown_reasons]
        )


def census(sites: Sequence[FunctionSite], reached: Set[Tuple[str, int]],
           allowlist: Mapping[str, str]) -> Findings:
    """Split ``sites`` into reached / allowlisted / failing, check the allowlist."""
    findings = Findings(list(sites))
    names = {site.name for site in sites}
    for site in sites:
        if (site.path, site.first) in reached:
            findings.reached.append(site)
            if site.name in allowlist:
                findings.stale.append(site.name)
        elif site.name in allowlist:
            findings.allowed.append((site, allowlist[site.name]))
        else:
            findings.unreached.append(site)
    findings.gone = sorted(name for name in allowlist if name not in names)
    findings.unknown_reasons = sorted(
        (name, reason) for name, reason in allowlist.items() if not known_reason(reason)
    )
    return findings


def _tally(keyed_sites: Iterable[Tuple[str, FunctionSite]]) -> Dict[str, List[int]]:
    """``key -> [functions, lines]`` over ``(key, site)`` pairs."""
    tally: Dict[str, List[int]] = {}
    for key, site in keyed_sites:
        counts = tally.setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += site.lines
    return tally


def report(findings: Findings, listing: bool = False) -> str:
    """Unreached lines per module, the allowlist per reason, then the problems."""
    total = sum(s.lines for s in findings.sites)
    out = [f"census: {len(findings.sites)} functions ({total} lines) in src/repro, "
           f"{len(findings.reached)} reached"]
    unreached = findings.unreached + [site for site, _ in findings.allowed]
    per_module = _tally((site.module, site) for site in unreached)
    out.append("unreached per module (functions, lines):")
    for module, (count, lines) in sorted(per_module.items(), key=lambda kv: (-kv[1][1], kv[0])):
        out.append(f"  {module:44s} {count:4d} {lines:6d}")
    per_reason = sorted(_tally((reason, site) for site, reason in findings.allowed).items())
    per_reason += _tally(("total", site) for site, _ in findings.allowed).items()
    out.append("allowlist per reason (functions, lines):")
    for reason, (count, lines) in per_reason:
        out.append(f"  {reason:44s} {count:4d} {lines:6d}")
    if listing:
        out.append("unreached functions:")
        out.extend(f"  {site.name}  {site.lines}" for site in sorted(unreached, key=lambda s: s.name))
    problems = findings.problems()
    out.extend(problems)
    out.append(f"census: {len(problems)} problem(s)" if problems else "census: OK")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------

#: (warm-up, measured) simulated seconds of the figure points (fig4: half)
WINDOWS = (0.1, 0.3)
#: ``benchmarks/ledger/run.py --smoke``'s scale of the simulated windows
LEDGER_SMOKE_SCALE = 0.05
#: Named, not read from the ledger: importing it would import ``repro`` before
#: the profiler starts.
LEDGER_WORKLOADS = ("ring-unbatched", "ring-batched", "kv-global-open", "dlog-sharded-w2")


def _script(relative: str, *argv: str) -> Callable[[], object]:
    def run() -> object:
        path = str(ROOT / relative)
        saved = sys.argv
        sys.argv = [path, *argv]
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as stop:
            return stop.code
        finally:
            sys.argv = saved
        return None
    return run


def _ledger(name: str) -> Callable[[], object]:
    def run() -> object:
        ledger_dir = str(ROOT / "benchmarks" / "ledger")
        if ledger_dir not in sys.path:
            sys.path.insert(0, ledger_dir)
        from ledger_workloads import Observer, workload_named

        workload = workload_named(name)
        observer = Observer()
        observer.install()
        problems: List[str] = []
        try:
            # The timed slice, then the traced run's in-process form.
            for workers in sorted({workload.workers, 1}, reverse=True):
                result = workload.call(42, scale=LEDGER_SMOKE_SCALE, workers=workers)
                problems += workload.read(result, observer).problems
                observer.reset()
        finally:
            observer.uninstall()
        return problems + workload.verify(42) or None
    return run


def _report(results: Sequence[object], param: str, metric: str) -> None:
    """What a benchmark file's report step prints."""
    from repro.bench import print_results, relative_increments

    relative_increments([r.metrics[metric] for r in results])
    print_results(results, param_keys=[param], metric_keys=[metric], title="census")


def _fig3() -> None:
    from repro.bench.fig3_baseline import FIG3_STORAGE_MODES, FIG3_VALUE_SIZES, run_fig3_point

    warmup, duration = WINDOWS
    results = [run_fig3_point(2048, storage, warmup=warmup, duration=duration)
               for storage in FIG3_STORAGE_MODES]
    for size in (FIG3_VALUE_SIZES[0], FIG3_VALUE_SIZES[-1]):
        run_fig3_point(size, FIG3_STORAGE_MODES[0], warmup=warmup, duration=duration)
    run_fig3_point(2048, FIG3_STORAGE_MODES[0], warmup=warmup, duration=duration,
                   batching_enabled=True, threads_per_proposer=40)
    _report(results, "storage", "ops_per_s")


def _fig4() -> None:
    from repro.bench.fig4_ycsb import FIG4_SYSTEMS, FIG4_WORKLOADS, run_fig4_point

    warmup, duration = (window / 2 for window in WINDOWS)
    for system in FIG4_SYSTEMS:
        for workload in FIG4_WORKLOADS:
            run_fig4_point(system, workload, client_threads=40, record_count=2000,
                           warmup=warmup, duration=duration)


def _fig5() -> None:
    from repro.bench.fig5_dlog import FIG5_SYSTEMS, run_fig5_point

    warmup, duration = WINDOWS
    for system in FIG5_SYSTEMS:
        for threads in (10, 100):
            run_fig5_point(system, threads, warmup=warmup, duration=duration)


def _fig6() -> None:
    from repro.bench import run_fig6_point, run_fig6_sharded

    warmup, duration = WINDOWS
    results = [run_fig6_point(rings, clients_per_ring=8, warmup=warmup, duration=duration)
               for rings in (1, 3)]
    _report(results, "rings", "aggregate_ops")
    run_fig6_sharded(2, workers=2, clients_per_ring=8, warmup=warmup, duration=duration)
    run_fig6_sharded(2, workers=2, clients_per_ring=8, warmup=warmup, duration=duration,
                     crash_schedule=[(0.15, "dlog-replica0", 0.1)])


def _fig7() -> None:
    from repro.bench import run_fig7_point

    warmup, duration = WINDOWS
    for regions in (1, 3):
        run_fig7_point(regions, key_count=200, warmup=warmup, duration=duration)


def _fig8() -> None:
    from repro.bench import run_fig8

    run_fig8(time_scale=0.05, load_ops_per_s=2000.0)


def _chaos(*argv: str) -> Callable[[], object]:
    def run() -> object:
        from repro.chaos.scenario import main

        return main(list(argv)) or None
    return run


ENTRY_POINTS: List[Tuple[str, Callable[[], object]]] = [
    ("examples/quickstart.py", _script("examples/quickstart.py")),
    ("examples/distributed_log.py", _script("examples/distributed_log.py")),
    ("examples/geo_kvstore.py", _script("examples/geo_kvstore.py")),
    ("examples/recovery_demo.py", _script("examples/recovery_demo.py")),
    ("examples/sharded_service.py --workers 2",
     _script("examples/sharded_service.py", "--workers", "2")),
    *[(f"ledger {name} --smoke", _ledger(name)) for name in LEDGER_WORKLOADS],
    ("fig3 points", _fig3),
    ("fig4 points", _fig4),
    ("fig5 points", _fig5),
    ("fig6 points + sharded", _fig6),
    ("fig7 points", _fig7),
    ("fig8 timeline", _fig8),
    ("benchmarks/wire_replay.py", _script("benchmarks/wire_replay.py",
                                          "--duration", "0.5", "--repeats", "1")),
    ("chaos --seed 0 --count 60", _chaos("--seed", "0", "--count", "60")),
    ("chaos --seed 0 --count 40 --workers 2",
     _chaos("--seed", "0", "--count", "40", "--workers", "2")),
]


@contextlib.contextmanager
def _following_forks(profiler: cProfile.Profile, directory: str) -> Iterator[None]:
    """A forked child dumps ``profiler`` (which it inherited) before ``os._exit``."""
    real_exit = os._exit
    parent = os.getpid()

    def exit_dumping(code: int) -> None:
        if os.getpid() != parent:
            profiler.dump_stats(os.path.join(directory, f"{os.getpid()}.prof"))
        real_exit(code)

    os._exit = exit_dumping
    try:
        yield
    finally:
        os._exit = real_exit


def collect(entry_points: Sequence[Tuple[str, Callable[[], object]]],
            log=sys.stderr) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry point under one profiler; (reached code, failures)."""
    profiler = cProfile.Profile()
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="census-") as workers_dir:
        with _following_forks(profiler, workers_dir):
            for label, run in entry_points:
                started = time.perf_counter()
                profiler.enable()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        outcome = run()
                except Exception:  # a broken runner is a failure of the census, reported
                    outcome = traceback.format_exc()
                finally:
                    profiler.disable()
                if outcome not in (None, 0):
                    failures.append(f"ENTRY {label}: {outcome}")
                print(f"census: {label:44s} {time.perf_counter() - started:7.1f} s", file=log)
        keys = set(pstats.Stats(profiler).stats)
        for dump in sorted(Path(workers_dir).glob("*.prof")):
            keys |= set(pstats.Stats(str(dump)).stats)
    return reached_code(keys), failures


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.tools.census",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list every unreached function")
    args = parser.parse_args(list(argv))
    from tests.tools.allowlist import ALLOWLIST

    reached, failures = collect(ENTRY_POINTS)
    findings = census(defined_functions(), reached, ALLOWLIST)
    print(report(findings, listing=args.list))
    for failure in failures:
        print(failure)
    return 1 if failures or findings.problems() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

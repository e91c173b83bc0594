"""Tests of the ledger benchmark's own machinery.

Not part of tier 1 (``testpaths = ["tests"]``); run explicitly::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import ledger_stats  # noqa: E402
from ledger_spans import LAYERS, SpanRecorder, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------- spans

class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_sum_to_the_root_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    wrapped_leaf = recorder.wrap("sim.network", "sim.network:send", leaf)

    def handler():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)
        wrapped_leaf()

    wrapped_handler = recorder.wrap("ringpaxos", "ringpaxos:on_message", handler)

    def loop():
        clock.advance(0.25)
        wrapped_handler()
        wrapped_handler()
        clock.advance(0.25)

    wrapped_loop = recorder.wrap("sim.kernel", "sim.kernel:run", loop)
    # run_window -> run: a span of a layer nested in a span of the same layer.
    wrapped_window = recorder.wrap("sim.kernel", "sim.kernel:run_window", wrapped_loop)
    wrapped_window()

    metrics = recorder.layer_metrics()
    assert metrics["sim.network.calls"] == 4
    assert metrics["sim.network.self_s"] == pytest.approx(8.0)
    assert metrics["ringpaxos.self_s"] == pytest.approx(3.0)
    assert metrics["ringpaxos.busy_s"] == pytest.approx(11.0)
    assert metrics["sim.kernel.self_s"] == pytest.approx(0.5)
    # Nested same-layer spans are busy once, not twice.
    assert metrics["sim.kernel.calls"] == 2
    assert metrics["sim.kernel.busy_s"] == pytest.approx(11.5)
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total_self == pytest.approx(recorder.root_s) == pytest.approx(11.5)
    assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1.0)


def test_spans_carry_their_parent_and_survive_exceptions():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    inner = recorder.wrap("paxos", "paxos:receive_phase2", boom)

    def outer():
        with pytest.raises(ValueError):
            inner()
        clock.advance(1.0)

    recorder.wrap("ringpaxos", "ringpaxos:on_message", outer)()
    assert not recorder.stack
    spans = {recorder.labels[label]: (span_id, parent) for label, _, _, span_id, parent in recorder.raw}
    assert spans["ringpaxos:on_message"][1] == 0
    assert spans["paxos:receive_phase2"][1] == spans["ringpaxos:on_message"][0]
    events = recorder.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["ringpaxos:on_message", "paxos:receive_phase2"]
    assert events[0]["dur"] == pytest.approx(2e6)


def test_raw_span_limit_keeps_ancestors():
    recorder = SpanRecorder(clock=FakeClock(), keep=2)
    leaf = recorder.wrap("paxos", "paxos:leaf", lambda: None)

    def root():
        for _ in range(5):
            leaf()

    recorder.wrap("sim.kernel", "sim.kernel:run", root)()
    labels = [recorder.labels[label] for label, *_ in recorder.raw]
    # Two leaves fit; the root closes last but is kept as their parent.
    assert labels == ["paxos:leaf", "paxos:leaf", "sim.kernel:run"]


def test_tracer_installs_and_restores_and_tolerates_missing_hooks():
    import types

    module = types.ModuleType("ledger_fake_module")

    class Thing:
        def work(self):
            return 41

    module.Thing = Thing
    sys.modules["ledger_fake_module"] = module
    try:
        original = Thing.__dict__["work"]
        tracer = Tracer()
        tracer.install((
            ("paxos", "ledger_fake_module", "Thing", "work"),
            ("paxos", "ledger_fake_module", "Thing", "_renamed_away"),
            ("paxos", "ledger_no_such_module", None, "f"),
        ))
        assert Thing().work() == 41
        assert tracer.recorder.layer_metrics()["paxos.calls"] == 1
        assert tracer.missing == [
            "ledger_fake_module.Thing._renamed_away", "ledger_no_such_module.f"]
        tracer.uninstall()
        assert Thing.__dict__["work"] is original
    finally:
        del sys.modules["ledger_fake_module"]


# ------------------------------------------------------------ statistics

def test_quartile_helpers_match_the_contracts_definition():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 3.2]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert ledger_stats.quartiles(values) == (q1, q3)
    assert ledger_stats.median(values) == q2
    assert ledger_stats.quartiles([2.5]) == (2.5, 2.5)
    assert ledger_stats.summary(values)["n"] == 10


def test_fastest_is_the_mean_of_the_three_smallest():
    # Bimodal calibration loops, a quarter of them fast: the lower quartile
    # sits between the modes (0.255), the fastest three are the fast mode.
    loops = [0.35, 0.22, 0.34, 0.36, 0.21, 0.35, 0.33, 0.23, 0.35, 0.34, 0.36, 0.35]
    assert ledger_stats.fastest(loops) == pytest.approx(0.22)
    assert 0.23 < ledger_stats.quartiles(loops)[0] < 0.33
    assert ledger_stats.fastest([0.3, 0.2]) == pytest.approx(0.25)
    # One undisturbed slice in a burst sets the run's host time.
    assert ledger_stats.normalise([4.0, 3.0, 9.0], loops) == pytest.approx(
        3.0 / 0.22 * ledger_stats.CALIB_REF_S)
    assert ledger_stats.normalise([3.2], [0.32]) == pytest.approx(10 * ledger_stats.CALIB_REF_S)


def test_host_clock_counts_this_process_and_waited_children():
    before = ledger_stats.host_clock()
    ledger_stats.calibration_loop(20_000)
    own = ledger_stats.host_clock() - before
    assert own > 0.0
    before = ledger_stats.host_clock()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    assert ledger_stats.host_clock() - before > 0.01  # the child's CPU time, not ours


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
def test_one_core_pins_and_restores():
    import run as ledger_run

    allowed = os.sched_getaffinity(0)
    with ledger_run.one_core() as core:
        assert core in allowed and os.sched_getaffinity(0) == {core}
    assert os.sched_getaffinity(0) == allowed


def test_calibration_loop_is_deterministic():
    assert ledger_stats.calibration_loop(5_000) == ledger_stats.calibration_loop(5_000)
    assert ledger_stats.calibration_loop(5_000) != ledger_stats.calibration_loop(5_001)
    assert ledger_stats.calibrate() > 0.0


# -------------------------------------------------------------- contract

def test_benchmark_json_is_within_the_contracts_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [w["name"] for w in contract["workloads"]]
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = contract["end_to_end"] + contract["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_layer_metric_names_cover_every_layer(contract):
    declared = {m["name"] for m in contract["per_layer"]}
    for layer in LAYERS:
        for suffix in ("calls", "busy_s", "self_s", "self_share"):
            assert f"{layer}.{suffix}" in declared


def test_workload_table_matches_the_contract(contract):
    sys.path.insert(0, str(ROOT / "src"))
    from ledger_workloads import WORKLOADS

    assert [{"name": w.name, "why": w.why} for w in WORKLOADS] == contract["workloads"]


def test_smoke_run_prints_every_declared_metric(contract, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ring-batched", "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    printed = {line.split()[0]: line.split()[-1] for line in lines if line and line[0] not in "#{"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    # --trace both ends with the traced phase: exactly the per-layer names.
    assert set(result["metrics"]) == {m["name"] for m in contract["per_layer"]}
    trace = json.loads((tmp_path / "ring-batched.trace.json").read_text())
    assert trace["traceEvents"] and trace["traceEvents"][0]["ph"] == "X"


def test_bare_directory_fails_without_a_result(contract, tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "ring-batched",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()

"""Smoke tests of the benchmark harness (tiny versions of every figure).

``FIGURE_POINTS`` are short single-process points of Figures 5–8 whose
metrics and series are pinned exactly in ``tests/golden/exact.json``
(``figure_points``); ``python -m tests.golden.repin`` reads them from here.
"""

import pytest

from repro.bench import (
    ExperimentResult,
    MeasurementWindow,
    format_results,
    format_table,
    print_results,
    relative_increments,
    run_fig3_point,
    run_fig4_point,
    run_fig5_point,
    run_fig6_point,
    run_fig7_point,
    run_fig8,
)
from repro.bench.runner import stable_payload_key
from repro.core.client import Command
from repro.core.packing import PackedValues
from repro.paxos.messages import SKIP, ProposalValue
from repro.sim.disk import StorageMode
from tests import golden

#: ``name -> run`` of the pinned single-process figure points.
FIGURE_POINTS = {
    "fig5-dlog": lambda: run_fig5_point("dlog", 8, warmup=0.1, duration=0.3),
    "fig6-2rings": lambda: run_fig6_point(2, clients_per_ring=4, warmup=0.1, duration=0.3),
    "fig7-2regions": lambda: run_fig7_point(2, key_count=200, warmup=0.2, duration=0.5),
    "fig8": lambda: run_fig8(time_scale=0.01, load_ops_per_s=500, key_count=200),
}


def exact_point(name):
    """Every metric (``float.hex``) and a digest of every series of one point."""
    result = FIGURE_POINTS[name]()
    return {
        "metrics": golden.exact_metrics(result.metrics),
        "series": {key: golden.digest(series) for key, series in sorted(result.series.items())},
    }


def figure_points():
    return {name: exact_point(name) for name in sorted(FIGURE_POINTS)}


@pytest.mark.parametrize("name", sorted(FIGURE_POINTS))
def test_figure_point_reproduces_the_golden_values(name):
    assert exact_point(name) == golden.load()["figure_points"][name], (
        f"{name}: a simulated value moved — say which modelled behaviour changed, then "
        "`python -m tests.golden.repin`"
    )


class TestReporting:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "metric"], [["x", 1.5], ["longer", 12345.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "12,345" in table

    def test_format_results(self):
        results = [
            ExperimentResult(name="t", params={"p": 1}, metrics={"m": 2.0}),
            ExperimentResult(name="t", params={"p": 2}, metrics={"m": 4.0}),
        ]
        text = format_results(results, ["p"], ["m"], title="demo")
        assert text.startswith("demo")
        assert "4.00" in text

    def test_relative_increments(self):
        increments = relative_increments([100.0, 200.0, 290.0])
        assert increments[0] == 100.0
        assert increments[1] == pytest.approx(100.0)
        assert increments[2] == pytest.approx(90.0)
        assert relative_increments([]) == []

    def test_measurement_window(self):
        window = MeasurementWindow(warmup=1.0, duration=2.0)
        assert window.end == 3.0

    def test_print_results_prints_the_formatted_table(self, capsys):
        results = [ExperimentResult(name="t", params={"p": 1}, metrics={"m": 2.0})]
        print_results(results, ["p"], ["m"], title="demo")
        assert capsys.readouterr().out == "\n" + format_results(results, ["p"], ["m"], title="demo") + "\n"


class TestStablePayloadKey:
    """Delivery identities compared between ``workers=1`` and ``workers=k`` runs."""

    def test_a_command_is_keyed_by_what_it_does_not_by_its_id(self):
        first = Command(op="read", args=("k",), group_id=2, client="c0", created_at=0.5)
        second = Command(op="read", args=("k",), group_id=2, client="c0", created_at=0.5)
        assert first.command_id != second.command_id
        assert stable_payload_key(first) == stable_payload_key(second) \
            == ("read", ("k",), 2, "c0", 0.5)
        later = Command(op="read", args=("k",), group_id=2, client="c0", created_at=0.6)
        assert stable_payload_key(later) != stable_payload_key(first)

    def test_a_skip_has_one_key(self):
        assert stable_payload_key(SKIP) == "<SKIP>"

    def test_a_pack_is_keyed_by_its_leaves_in_order(self):
        a = Command(op="insert", args=("a",), client="c0")
        b = Command(op="insert", args=("b",), client="c1")

        def value(payload):
            return ProposalValue(payload=payload, size_bytes=8, proposer="p", proposal_id=1)

        packed = PackedValues(values=[value(a), value(SKIP), value(PackedValues(values=[value(b)]))])
        assert stable_payload_key(packed) == (stable_payload_key(a), stable_payload_key(b))

    def test_any_other_payload_is_keyed_by_its_repr(self):
        assert stable_payload_key(("g0", 3)) == "('g0', 3)"


@pytest.mark.slow
class TestFigureRunnersSmoke:
    """Each figure runner produces sane metrics at a tiny scale."""

    def test_fig3_runner(self):
        result = run_fig3_point(2048, StorageMode.IN_MEMORY, warmup=0.2, duration=0.8)
        assert result.metrics["ops_per_s"] > 0
        assert result.metrics["throughput_mbps"] > 0
        assert result.series["latency_cdf"]

    def test_fig4_runner(self):
        result = run_fig4_point("mysql", "C", client_threads=8, record_count=300,
                                warmup=0.2, duration=0.8)
        assert result.metrics["throughput_ops"] > 0

    def test_fig4_mrp_runner(self):
        result = run_fig4_point("mrp-store-indep", "A", client_threads=8, record_count=300,
                                warmup=0.2, duration=0.8)
        assert result.metrics["throughput_ops"] > 0

    def test_fig5_runner(self):
        result = run_fig5_point("bookkeeper", 8, warmup=0.2, duration=0.8)
        assert result.metrics["throughput_ops"] > 0
        assert result.metrics["latency_mean_ms"] > 0

    def test_fig6_runner(self):
        result = run_fig6_point(1, clients_per_ring=4, warmup=0.2, duration=0.8)
        assert result.metrics["aggregate_ops"] > 0

    def test_fig7_runner(self):
        result = run_fig7_point(1, key_count=200, warmup=0.5, duration=1.5)
        assert result.metrics["aggregate_ops"] > 0

    def test_fig8_runner(self):
        result = run_fig8(time_scale=0.02, load_ops_per_s=500, key_count=200)
        assert result.metrics["victim_recovered"] == 1.0
        assert result.series["throughput_timeline"]

    def test_fig8_rejects_inconsistent_times(self):
        with pytest.raises(ValueError):
            run_fig8(duration=10.0, crash_at=8.0, restart_at=5.0)

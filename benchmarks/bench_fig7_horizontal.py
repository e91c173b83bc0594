"""Figure 7 — horizontal scalability of MRP-Store across EC2-like regions.

Regenerates the aggregate-throughput bars and the us-west-2 latency CDF of
Figure 7 (Section 8.4.2).  Expected shape: aggregate throughput grows about
linearly with the number of regions; latency in the observed region stays
roughly constant.
"""

from __future__ import annotations

import pytest

from repro.bench import print_results, relative_increments, run_fig7_point, run_fig7_sharded

_RESULTS = []

_REGION_COUNTS = (1, 2, 3, 4)


@pytest.mark.parametrize("regions", _REGION_COUNTS)
def test_fig7_point(benchmark, regions: int, windows):
    """One region-count point of Figure 7."""
    warmup, duration = windows
    # WAN rounds are long; give the measurement a little more room than the
    # local experiments while staying far below the paper's 100 s runs.
    duration = max(duration, 3.0)

    def run():
        return run_fig7_point(regions, warmup=warmup, duration=duration)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS.append(result)
    benchmark.extra_info.update(result.metrics)
    assert result.metrics["aggregate_ops"] > 0


@pytest.mark.parametrize("regions", _REGION_COUNTS)
@pytest.mark.parametrize("configuration", ["independent", "shared"])
def test_fig7_point_sharded(benchmark, regions: int, windows, workers, configuration):
    """One region-count point on the sharded engine (``--workers N``).

    One shard per region, spread over ``N`` worker processes — the
    multi-core re-measurement of horizontal scalability.  ``independent``
    drops the global ring; ``shared`` keeps the figure's *original* globally
    ordered deployment — every replica subscribes to its partition ring plus
    the global ring, which runs in its own shard with the replicas' merge
    order reconstructed by the merge stage.
    """
    if workers is None:
        pytest.skip("pass --workers N to run the sharded figure points")
    warmup, duration = windows
    duration = max(duration, 3.0)

    def run():
        return run_fig7_sharded(
            regions,
            workers=workers,
            warmup=warmup,
            duration=duration,
            configuration=configuration,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(result.metrics)
    assert result.metrics["aggregate_ops"] > 0


def test_fig7_report(benchmark):
    """Print the Figure 7 series and check scaling plus flat latency."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _RESULTS:
        pytest.skip("no fig7 points were collected")
    ordered = sorted(_RESULTS, key=lambda r: r.params["regions"])
    aggregates = [r.metrics["aggregate_ops"] for r in ordered]
    increments = relative_increments(aggregates)
    for result, increment in zip(ordered, increments):
        result.metrics["relative_increment_pct"] = increment
    print_results(
        ordered,
        param_keys=["regions"],
        metric_keys=["aggregate_ops", "relative_increment_pct", "latency_mean_ms"],
        title="Figure 7 — MRP-Store horizontal scalability across regions",
    )
    assert all(b >= a * 0.95 for a, b in zip(aggregates, aggregates[1:])), (
        "aggregate throughput should grow (or stay flat) as regions are added"
    )
    # Latency comparison: the single-region case is a degenerate local
    # deployment; among genuinely geo-distributed configurations the observed
    # region's latency should stay in the same range (the paper reports an
    # almost constant latency; our simulated global ring adds some growth
    # with its WAN span — recorded in EXPERIMENTS.md).
    latencies = [r.metrics["latency_mean_ms"] for r in ordered if r.params["regions"] >= 2]
    if len(latencies) >= 2 and latencies[0] > 0:
        assert max(latencies) <= max(latencies[0] * 6.0, 400.0), (
            "latency in the observed region should stay within the WAN round-trip range"
        )

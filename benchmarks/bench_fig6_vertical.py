"""Figure 6 — vertical scalability of dLog (one disk per ring).

Regenerates the aggregate-throughput bars and the disk-1 latency CDF of
Figure 6 (Section 8.4.1).  Expected shape: aggregate throughput grows close to
linearly with the number of rings/disks (the paper reports 95-106 % relative
increments) while latency stays roughly flat.
"""

from __future__ import annotations

import pytest

from repro.bench import print_results, relative_increments, run_fig6_point, run_fig6_sharded

_RESULTS = []

_RING_COUNTS = (1, 2, 3, 4, 5)
_CLIENTS_PER_RING = 8


@pytest.mark.parametrize("rings", _RING_COUNTS)
def test_fig6_point(benchmark, rings: int, windows):
    """One ring-count point of Figure 6."""
    warmup, duration = windows

    def run():
        return run_fig6_point(
            rings, clients_per_ring=_CLIENTS_PER_RING, warmup=warmup, duration=duration
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS.append(result)
    benchmark.extra_info.update(result.metrics)
    assert result.metrics["aggregate_ops"] > 0


@pytest.mark.parametrize("configuration", ["independent", "shared"])
@pytest.mark.parametrize("rings", _RING_COUNTS)
def test_fig6_point_sharded(benchmark, rings: int, windows, workers, configuration):
    """One ring-count point on the sharded engine (``--workers N``).

    Each ring runs as its own shard spread over ``N`` worker processes.
    ``independent`` gives every shard its own replica; ``shared`` is the
    figure's *original* deployment — shared learner plus the common ring,
    reconstructed by the merge stage.  Compare ``aggregate_ops`` and the
    recorded wall clock against the single-loop points above to see the
    multi-core scaling curve.
    """
    if workers is None:
        pytest.skip("pass --workers N to run the sharded figure points")
    warmup, duration = windows

    def run():
        return run_fig6_sharded(
            rings,
            workers=workers,
            clients_per_ring=_CLIENTS_PER_RING,
            warmup=warmup,
            duration=duration,
            configuration=configuration,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(result.metrics)
    assert result.metrics["aggregate_ops"] > 0


def test_fig6_report(benchmark):
    """Print the Figure 6 series and check near-linear scaling."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _RESULTS:
        pytest.skip("no fig6 points were collected")
    ordered = sorted(_RESULTS, key=lambda r: r.params["rings"])
    aggregates = [r.metrics["aggregate_ops"] for r in ordered]
    increments = relative_increments(aggregates)
    for result, increment in zip(ordered, increments):
        result.metrics["relative_increment_pct"] = increment
    print_results(
        ordered,
        param_keys=["rings"],
        metric_keys=["aggregate_ops", "relative_increment_pct", "latency_disk1_mean_ms"],
        title="Figure 6 — dLog vertical scalability (async disk, one disk per ring)",
    )
    assert all(b >= a for a, b in zip(aggregates, aggregates[1:])), (
        "aggregate throughput should not decrease as rings/disks are added"
    )
    if len(aggregates) >= 3:
        scaling = aggregates[-1] / aggregates[0]
        assert scaling >= 0.6 * len(aggregates), (
            f"scaling with {len(aggregates)} rings should be near-linear, got {scaling:.2f}x"
        )

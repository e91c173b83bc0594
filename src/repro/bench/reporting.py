"""Formatting of benchmark results into paper-style tables and series."""

from __future__ import annotations

from typing import Any, List, Sequence

from .runner import ExperimentResult

__all__ = ["format_table", "format_results", "relative_increments", "print_results"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a plain-text table with aligned columns."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in str_rows
    ]
    return "\n".join([line, separator] + body)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def format_results(
    results: Sequence[ExperimentResult],
    param_keys: Sequence[str],
    metric_keys: Sequence[str],
    title: str = "",
) -> str:
    """Render experiment results as a table keyed by their parameters."""
    headers = list(param_keys) + list(metric_keys)
    rows = [
        [r.params.get(k, "") for k in param_keys] + [r.metrics.get(k, 0.0) for k in metric_keys]
        for r in results
    ]
    table = format_table(headers, rows)
    if title:
        return f"{title}\n{table}"
    return table


def relative_increments(values: Sequence[float]) -> List[float]:
    """Per-step relative increase, as the percentages printed on Figures 6 and 7.

    The first entry is 100 %; subsequent entries are the ratio between the
    marginal gain and the previous per-unit value, e.g. ``[100.0, 95.3, ...]``.
    """
    if not values:
        return []
    increments = [100.0]
    for i in range(1, len(values)):
        marginal = values[i] - values[i - 1]
        per_unit_before = values[i - 1] / i
        if per_unit_before <= 0:
            increments.append(0.0)
        else:
            increments.append(100.0 * marginal / per_unit_before)
    return increments


def print_results(
    results: Sequence[ExperimentResult],
    param_keys: Sequence[str],
    metric_keys: Sequence[str],
    title: str = "",
) -> None:
    """Print a result table (used by the pytest benchmarks' ``-s`` mode)."""
    print()
    print(format_results(results, param_keys, metric_keys, title=title))

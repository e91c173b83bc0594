"""Benchmark harness: one module per figure of the paper's evaluation."""

from .fig3_baseline import FIG3_STORAGE_MODES, FIG3_VALUE_SIZES, run_fig3, run_fig3_point
from .fig4_ycsb import FIG4_SYSTEMS, FIG4_WORKLOADS, run_fig4, run_fig4_point
from .fig5_dlog import FIG5_CLIENT_THREADS, FIG5_SYSTEMS, run_fig5, run_fig5_point
from .fig6_vertical import FIG6_RING_COUNTS, run_fig6, run_fig6_point
from .fig7_horizontal import FIG7_REGION_COUNTS, run_fig7, run_fig7_point
from .fig8_recovery import FIG8_EVENTS, RecoveryTimeline, run_fig8
from .parallel import run_fig6_sharded, run_fig7_sharded
from .reporting import format_results, format_table, print_results, relative_increments
from .runner import ExperimentResult, Measurement, MeasurementWindow

__all__ = [
    "FIG3_STORAGE_MODES",
    "FIG3_VALUE_SIZES",
    "run_fig3",
    "run_fig3_point",
    "FIG4_SYSTEMS",
    "FIG4_WORKLOADS",
    "run_fig4",
    "run_fig4_point",
    "FIG5_CLIENT_THREADS",
    "FIG5_SYSTEMS",
    "run_fig5",
    "run_fig5_point",
    "FIG6_RING_COUNTS",
    "run_fig6",
    "run_fig6_point",
    "FIG7_REGION_COUNTS",
    "run_fig7",
    "run_fig7_point",
    "FIG8_EVENTS",
    "RecoveryTimeline",
    "run_fig8",
    "format_results",
    "format_table",
    "print_results",
    "relative_increments",
    "ExperimentResult",
    "Measurement",
    "MeasurementWindow",
    "run_fig6_sharded",
    "run_fig7_sharded",
]

"""Benchmark harness: paper reference data, runners, renderers."""

from repro.bench import paper
from repro.bench.experiments import (
    run_detection,
    run_figure1,
    run_figure4,
    run_scaleup,
    run_table1,
)
from repro.bench.runner import (
    DEFAULT_BENCH_TUPLES,
    bench_tuples,
    clear_caches,
    get_workload,
    run_algorithm,
    scale_label,
    sweep,
    sweep_points,
)
from repro.bench.tables import format_seconds, render_csv, render_series, render_table

__all__ = [
    "paper",
    "run_figure1",
    "run_figure4",
    "run_table1",
    "run_scaleup",
    "run_detection",
    "bench_tuples",
    "scale_label",
    "sweep",
    "sweep_points",
    "run_algorithm",
    "get_workload",
    "clear_caches",
    "DEFAULT_BENCH_TUPLES",
    "render_table",
    "render_series",
    "render_csv",
    "format_seconds",
]

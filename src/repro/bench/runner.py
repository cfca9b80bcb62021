"""Benchmark harness: scales, caching, and sweep execution.

The benchmarks regenerate the paper's tables and figures on the analytic
paper-scale path (exact counters from histograms — see
:mod:`repro.analysis.analytic`).  By default they run at a reduced table
size so the whole harness finishes in minutes on a laptop; set
``REPRO_BENCH_SCALE=paper`` (or an explicit tuple count such as
``REPRO_BENCH_SCALE=32000000``) to regenerate at the paper's full 32 M
scale.  Shapes — who wins, by what factor, where crossovers fall — hold at
every scale; absolute factors converge to the paper's as the scale rises.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.analytic import ANALYTIC_EXECUTORS, AnalyticWorkload
from repro.analysis.speedup import SweepPoint
from repro.bench.paper import PAPER_N_TUPLES
from repro.errors import ConfigError
from repro.exec.result import JoinResult
from repro.exec.serialize import append_results_jsonl
from repro.obs.trace import TraceRecord

#: Default reduced scale for the bench harness.
DEFAULT_BENCH_TUPLES = 1 << 22

_SCALE_ENV = "REPRO_BENCH_SCALE"

#: When set, every benchmark result is appended (with its trace) to
#: ``$REPRO_TRACE_DIR/traces.jsonl`` as a machine-readable artifact.
_TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Session-level caches so figures/tables sharing a sweep reuse results.
_workload_cache: Dict[Tuple[int, float, int], AnalyticWorkload] = {}
_result_cache: Dict[Tuple[int, float, int, str], JoinResult] = {}


def bench_tuples() -> int:
    """The table size the harness runs at (env-overridable).

    ``REPRO_BENCH_SCALE`` accepts ``paper`` or a positive tuple count;
    anything else is a configuration error, surfaced loudly rather than
    silently benchmarking the wrong scale.
    """
    raw = os.environ.get(_SCALE_ENV, "").strip().lower()
    if not raw:
        return DEFAULT_BENCH_TUPLES
    if raw == "paper":
        return PAPER_N_TUPLES
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"{_SCALE_ENV} must be 'paper' or a positive integer tuple "
            f"count, got {raw!r}"
        ) from None
    if n <= 0:
        raise ConfigError(
            f"{_SCALE_ENV} must be positive, got {n}"
        )
    return n


def scale_label(n: int) -> str:
    """Describe a bench scale for output headers."""
    if n == PAPER_N_TUPLES:
        return f"{n} tuples (paper scale)"
    return f"{n} tuples (reduced; set {_SCALE_ENV}=paper for 32M)"


def get_workload(n: int, theta: float, seed: int = 42) -> AnalyticWorkload:
    """Cached zipf histogram for one (scale, theta, seed)."""
    key = (n, theta, seed)
    if key not in _workload_cache:
        _workload_cache[key] = AnalyticWorkload.from_zipf(n, n, theta,
                                                          seed=seed)
    return _workload_cache[key]


def trace_artifact_path() -> Optional[str]:
    """The JSONL artifact file for this session, if exporting is enabled."""
    trace_dir = os.environ.get(_TRACE_DIR_ENV, "").strip()
    if not trace_dir:
        return None
    return os.path.join(trace_dir, "traces.jsonl")


def export_trace(result: JoinResult, **attrs) -> JoinResult:
    """Ensure ``result`` carries a trace; append it to the artifact file.

    Results from the analytic executors are built phase-by-phase without
    an active tracer, so a flat trace is derived from the breakdown —
    every benchmark run emits the same artifact schema either way.
    """
    if result.trace is None:
        result.trace = TraceRecord.from_phases(result.algorithm,
                                               result.phases, **attrs)
    path = trace_artifact_path()
    if path is not None:
        append_results_jsonl([result], path)
    return result


def run_algorithm(algorithm: str, n: int, theta: float,
                  seed: int = 42) -> JoinResult:
    """Run one algorithm's analytic executor, cached per (scale, theta)."""
    key = (n, theta, seed, algorithm)
    if key not in _result_cache:
        wl = get_workload(n, theta, seed)
        _result_cache[key] = export_trace(
            ANALYTIC_EXECUTORS[algorithm](wl),
            n_tuples=n, theta=theta, seed=seed,
        )
    return _result_cache[key]


def sweep(algorithms: Iterable[str], thetas: Iterable[float],
          n: Optional[int] = None, seed: int = 42):
    """Run a zipf sweep; returns {theta: {algorithm: JoinResult}}."""
    n = bench_tuples() if n is None else n
    out: Dict[float, Dict[str, JoinResult]] = {}
    for theta in thetas:
        out[theta] = {
            alg: run_algorithm(alg, n, theta, seed) for alg in algorithms
        }
    return out


def sweep_points(results: Dict[float, Dict[str, JoinResult]]):
    """Convert a sweep into SweepPoints of total simulated seconds."""
    return [
        SweepPoint(theta, {alg: res.simulated_seconds
                           for alg, res in algs.items()})
        for theta, algs in sorted(results.items())
    ]


def clear_caches() -> None:
    """Drop all cached workloads and results."""
    _workload_cache.clear()
    _result_cache.clear()

"""Percentiles, run-to-run spread, and the comparison of two run sets."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence


def _rank(n: int, q: float) -> int:
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``% of
    the samples at or below it.  ``percentile(range(1, 101), 90) == 90``
    leaves exactly 10 samples beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - _rank(n, q)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, positive when worse."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(runs_a: Iterable[Dict], runs_b: Iterable[Dict],
            specs: Dict[str, Dict]) -> List[Dict]:
    """One row per (workload, metric) present in both run sets.

    ``specs`` maps metric name to its ``BENCHMARK.json`` entry.  The
    verdict is ``regression`` when B's median is worse than A's by more
    than the bound, ``unresolved`` when either side's run-to-run spread
    exceeds the bound (unless every B run beats every A run), else ``ok``.
    Metrics without a bound (per-layer) are reported as ``info``.
    """
    def collect(runs):
        values = defaultdict(list)
        for run in runs:
            for name, metric in run.get("metrics", {}).items():
                values[(run["workload"], name)].append(metric["value"])
        return values

    a, b = collect(runs_a), collect(runs_b)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        spec = specs.get(name, {})
        better = spec.get("better", "lower")
        bound = spec.get("bound")
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        row = {
            "workload": workload, "metric": name, "unit": spec.get("unit", ""),
            "a": med_a, "b": med_b, "runs_a": len(a[key]),
            "runs_b": len(b[key]), "worse_by": worse_by(med_a, med_b, better),
            "spread": max(spread(a[key]), spread(b[key])), "bound": bound,
        }
        if bound is None:
            row["verdict"] = "info"
        elif row["spread"] > bound:
            all_better = all(worse_by(x, y, better) < 0
                             for x in a[key] for y in b[key])
            row["verdict"] = "better" if all_better else "unresolved"
        elif row["worse_by"] > bound:
            row["verdict"] = "regression"
        else:
            row["verdict"] = "ok"
        rows.append(row)
    return rows

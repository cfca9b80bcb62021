import pytest

from stats import beyond, compare, percentile, spread


def test_p90_of_100_samples_leaves_exactly_10_beyond():
    values = list(range(100, 0, -1))
    p90 = percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == beyond(100, 90) == 10


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    assert spread([7.0] * 10) == 0.0
    assert spread(list(range(1, 10))) == pytest.approx(5.0 / 5.0)
    assert spread([3.0]) == 0.0


def _runs(workload, metric, values):
    return [{"workload": workload, "metrics": {metric: {"value": v}}}
            for v in values]


SPECS = {
    "op_ms.p50": {"unit": "ms", "better": "lower", "bound": 0.10},
    "tuples_per_s": {"unit": "tuples/s", "better": "higher", "bound": 0.10},
    "table.build_s": {"unit": "s", "better": "lower"},
}


@pytest.mark.parametrize("metric,a,b,verdict", [
    ("op_ms.p50", [100, 101, 99, 100, 102], [100, 103, 101, 99, 100], "ok"),
    ("op_ms.p50", [100, 101, 99, 100, 102], [125, 126, 124, 125, 127],
     "regression"),
    ("op_ms.p50", [60, 100, 140, 80, 120], [100, 101, 99, 100, 102],
     "unresolved"),
    ("op_ms.p50", [60, 100, 140, 80, 120], [30, 31, 29, 30, 32], "better"),
    ("tuples_per_s", [1000, 1010, 990, 1000, 1005], [800, 810, 790, 800, 805],
     "regression"),
    ("tuples_per_s", [1000, 1010, 990, 1000, 1005],
     [1200, 1210, 1190, 1200, 1205], "ok"),
    ("table.build_s", [1, 1, 1], [5, 5, 5], "info"),
])
def test_compare_verdicts(metric, a, b, verdict):
    rows = compare(_runs("w", metric, a), _runs("w", metric, b), SPECS)
    assert [row["verdict"] for row in rows] == [verdict]


def test_compare_pairs_metrics_per_workload():
    a = _runs("w1", "op_ms.p50", [1, 1]) + _runs("w2", "op_ms.p50", [1, 1])
    b = _runs("w2", "op_ms.p50", [2, 2])
    rows = compare(a, b, SPECS)
    assert [(r["workload"], r["verdict"]) for r in rows] == [
        ("w2", "regression")]

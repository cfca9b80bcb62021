"""Tests for phase timing and the JoinResult and PhaseResult containers.

Pipelines time a phase with ``current_tracer().span(...)`` and read its
``PhaseResult`` back from ``span.phase_result``; with no tracer active
that goes through the null tracer, which is what these tests exercise.
"""

import pytest

from repro.errors import ExecutionError
from repro.exec.counters import OpCounters
from repro.exec.result import JoinResult, PhaseResult, compare_results
from repro.obs.trace import current_tracer


def make_result(algorithm="alg", count=10, checksum=99, phases=()):
    res = JoinResult(algorithm=algorithm, n_r=4, n_s=4,
                     output_count=count, output_checksum=checksum)
    res.phases.extend(phases)
    return res


def test_phase_timer_records_simulated_and_wall():
    with current_tracer().span("build") as span:
        span.finish(simulated_seconds=1.5,
                    counters=OpCounters(hash_ops=3),
                    task_count=2, foo=1.0)
    result = span.phase_result
    assert isinstance(result, PhaseResult)
    assert result.name == "build"
    assert result.simulated_seconds == 1.5
    assert result.counters.hash_ops == 3
    assert result.task_count == 2
    assert result.details["foo"] == 1.0
    assert result.wall_seconds >= 0


def test_phase_timer_requires_finish():
    with pytest.raises(ExecutionError):
        with current_tracer().span("p"):
            pass


def test_phase_timer_rejects_negative_time():
    with pytest.raises(ExecutionError):
        with current_tracer().span("p") as span:
            span.finish(simulated_seconds=-1.0)


def test_phase_timer_propagates_exceptions():
    with pytest.raises(RuntimeError):
        with current_tracer().span("p"):
            raise RuntimeError("boom")


def test_join_result_aggregates_phases():
    phases = [
        PhaseResult("a", 1.0, OpCounters(hash_ops=1)),
        PhaseResult("b", 2.0, OpCounters(hash_ops=2, chain_steps=3)),
    ]
    res = make_result(phases=phases)
    assert res.simulated_seconds == pytest.approx(3.0)
    assert res.counters.hash_ops == 3
    assert res.counters.chain_steps == 3
    assert res.breakdown() == {"a": 1.0, "b": 2.0}
    assert res.phase("b").simulated_seconds == 2.0
    assert res.phase_seconds("a", "b") == pytest.approx(3.0)


def test_join_result_phase_lookup_raises():
    res = make_result(phases=[PhaseResult("a", 1.0)])
    with pytest.raises(KeyError):
        res.phase("missing")


def test_matches_and_compare_results():
    a = make_result(count=5, checksum=1)
    b = make_result(algorithm="other", count=5, checksum=1)
    c = make_result(algorithm="bad", count=6, checksum=1)
    assert a.matches(b)
    assert compare_results([a, b]) is None
    msg = compare_results([a, b, c])
    assert msg is not None and "bad" in msg


def test_compare_results_empty_is_ok():
    assert compare_results([]) is None


def test_summary_line_mentions_phases():
    res = make_result(phases=[PhaseResult("join", 0.25)])
    line = res.summary_line()
    assert "join=" in line and "alg" in line

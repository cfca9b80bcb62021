"""A JoinResult's phases are its trace's finished root spans.

Pins the phase list, the ``aborted`` marks and the phase-sum check on
the runs where the two could drift apart: spilled runs (whose ``spill``
root span is not a phase), GPU runs that fall back to the CPU, a GSH
split failure (whose unfinished ``split`` root is not a phase) and
served cold/warm requests.
"""

import pytest

from repro.api import make_join
from repro.data.zipf import ZipfWorkload
from repro.faults.plan import (
    CAPACITY_OVERFLOW,
    ENOSPC,
    KERNEL_ABORT,
    STORE_WRITE_POINT,
    TORN_WRITE,
    FaultPlan,
    FaultSpec,
)
from repro.faults.scope import activate_plan
from repro.obs.trace import verify_result_trace
from repro.serve.engine import ProbeRequest, ServeEngine
from repro.store.spill import open_spill_session

N = 8192


@pytest.fixture(scope="module")
def workload():
    return ZipfWorkload(N, N, theta=1.0, seed=7).generate()


def _names(spans):
    return [span.name for span in spans]


def _aborted(result):
    return [span.name for span in result.trace.spans
            if span.details.get("aborted") == 1.0]


def _check_phase_view(result):
    """Every phase is a finished root span, converted unchanged."""
    assert verify_result_trace(result) is None
    roots = {span.name: span for span in result.trace.spans}
    for phase in result.phases:
        span = roots[phase.name]
        assert span.finished
        assert phase.simulated_seconds == span.simulated_seconds
        assert phase.counters == span.counters
        assert phase.details == span.details
    assert result.simulated_seconds == pytest.approx(
        sum(p.simulated_seconds for p in result.phases))


def _spilled(algorithm, join_input, plan=None):
    budget = max(12 * (len(join_input.r) + len(join_input.s)) // 4, 1)
    with activate_plan(plan or FaultPlan(())):
        with open_spill_session(budget_bytes=budget,
                                chunk_bytes=max(budget // 2, 4096)) as session:
            result = make_join(algorithm).run(join_input)
    assert session.spilled_partitions > 0
    return result


@pytest.mark.parametrize("algorithm, phases", [
    ("cbase", ["partition", "join"]),
    ("csh", ["sample", "partition", "nm-join"]),
])
def test_spill_span_is_a_root_but_not_a_phase(workload, algorithm, phases):
    result = _spilled(algorithm, workload)
    assert _names(result.phases) == phases
    assert "spill" in _names(result.trace.spans)
    assert "spill" not in _names(result.phases)
    assert _aborted(result) == []
    _check_phase_view(result)


@pytest.mark.parametrize("kind", [TORN_WRITE, ENOSPC])
def test_store_write_fault_reports_the_spill_phase(workload, kind):
    plan = FaultPlan((FaultSpec(kind=kind, point=STORE_WRITE_POINT),))
    result = _spilled("cbase", workload, plan)
    injected = [r for r in result.faults if r.injected]
    assert injected and all(r.phase == "spill" for r in injected)
    assert _names(result.phases) == ["partition", "join"]
    _check_phase_view(result)


@pytest.mark.parametrize("algorithm", ["gbase", "gsh"])
def test_cpu_fallback_keeps_the_aborted_partition(workload, algorithm):
    plan = FaultPlan((FaultSpec(kind=KERNEL_ABORT, point="kernel",
                                repeat=10),))
    with activate_plan(plan):
        result = make_join(algorithm).run(workload)
    assert result.meta["fallback"] == "cbase-npj"
    assert _names(result.phases) == ["partition", "fallback"]
    assert _aborted(result) == ["partition"]
    assert result.phase("partition").details["aborted"] == 1.0
    assert "aborted" not in result.phase("fallback").details
    _check_phase_view(result)


def test_gsh_split_failure_drops_the_unfinished_split_root(workload):
    plan = FaultPlan((FaultSpec(kind=CAPACITY_OVERFLOW, point="split"),))
    with activate_plan(plan):
        result = make_join("gsh").run(workload)
    assert result.meta["degraded"] == "gbase-sublist"
    assert _names(result.phases) == ["partition", "detect", "nm-join"]
    split = next(s for s in result.trace.spans if s.name == "split")
    assert not split.finished
    assert all("aborted" not in p.details for p in result.phases)
    _check_phase_view(result)


def test_served_cold_and_warm_phases(workload):
    engine = ServeEngine()
    engine.register("orders", workload.r)
    request = ProbeRequest(relation_id="orders", probe=workload.s)
    cold = engine.probe_sync(request).result
    warm = engine.probe_sync(request).result
    assert _names(cold.phases) == ["build", "probe"]
    assert _names(warm.phases) == ["probe"]
    for result in (cold, warm):
        assert _aborted(result) == []
        _check_phase_view(result)

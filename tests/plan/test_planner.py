"""The planner end to end: rank, choose, execute, stamp, learn."""

import json

import pytest

from repro.data.generators import uniform_input
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError
from repro.exec.backend import SCALAR
from repro.exec.differential import compare_results
from repro.plan import (
    CorrectionStore,
    Constraints,
    PLAN_META_KEY,
    Planner,
    verify_result_plan,
)
from tests.conftest import assert_result_correct


@pytest.fixture
def planner():
    """In-memory planner: fully deterministic."""
    return Planner(corrections=CorrectionStore())


@pytest.fixture
def workload():
    return ZipfWorkload(2000, 2000, theta=1.0, seed=9).generate()


def test_candidates_rank_by_predicted_wall(planner, workload):
    plan = planner.plan(workload)
    walls = [c.predicted_wall_seconds for c in plan.candidates]
    assert walls == sorted(walls)
    assert plan.chosen is plan.candidates[0]
    # Scalar's 12x interpretation penalty keeps it off the podium.
    assert plan.chosen.point.backend != SCALAR


def test_planning_is_deterministic(planner, workload):
    a = planner.plan(workload)
    b = planner.plan(workload)
    assert a.chosen.point == b.chosen.point
    assert [c.point for c in a.candidates] == [c.point for c in b.candidates]


def test_executed_plan_is_correct_and_stamped(planner, workload):
    result = planner.run(workload, learn=False)
    assert_result_correct(result, workload)
    plan = result.meta[PLAN_META_KEY]
    assert plan["algorithm"] == result.algorithm
    assert plan["realized_wall_seconds"] == pytest.approx(
        result.wall_seconds)
    assert verify_result_plan(result) is None


def test_plan_meta_survives_jsonl_round_trip(planner, workload, tmp_path):
    from repro.exec.serialize import (
        append_results_jsonl,
        results_from_jsonl_file,
    )
    result = planner.run(workload, learn=False)
    artifact = tmp_path / "planned.jsonl"
    append_results_jsonl([result], artifact)
    (reloaded,) = results_from_jsonl_file(artifact)
    assert verify_result_plan(reloaded) is None
    assert reloaded.meta[PLAN_META_KEY]["backend"] == \
        result.meta[PLAN_META_KEY]["backend"]


def test_planned_run_is_bit_identical_to_forced(planner, workload):
    from repro.api import make_join
    from repro.exec.backend import use_backend
    from repro.plan import pinned_workers

    result = planner.run(workload, learn=False)
    point = Planner(corrections=CorrectionStore()).plan(workload).chosen.point
    with use_backend(point.backend), pinned_workers(point):
        forced = make_join(point.algorithm).run(workload)
    assert compare_results(result, forced) == []


def test_impossible_deadline_leaves_no_feasible_candidate(planner, workload):
    plan = planner.plan(workload, Constraints(deadline_ms=1e-9))
    assert plan.chosen is None
    assert plan.n_feasible == 0
    assert all(c.reasons for c in plan.candidates)
    with pytest.raises(ConfigError):
        planner.execute(workload, plan)
    with pytest.raises(ConfigError):
        plan.meta()


def test_memory_budget_routes_to_spill_capable_algorithms(planner, workload):
    from repro.faults.plan import SPILL_ALGORITHM_NAMES
    plan = planner.plan(workload, Constraints(memory_budget_bytes=1))
    assert plan.chosen is not None
    feasible = {c.point.algorithm for c in plan.candidates if c.feasible}
    assert feasible <= set(SPILL_ALGORITHM_NAMES)


def test_learning_updates_the_corrections(planner, workload):
    assert len(planner.corrections) == 0
    result = planner.run(workload, learn=True)
    assert len(planner.corrections) > 0
    # The executed point's factors are now learned wall/base ratios.
    plan = result.meta[PLAN_META_KEY]
    key_factors = [
        planner.corrections.factor(plan["algorithm"], p["name"],
                                   plan["backend"])
        for p in plan["phases"]
    ]
    observations = [
        planner.corrections.observations(plan["algorithm"], p["name"],
                                         plan["backend"])
        for p in plan["phases"]
    ]
    assert all(n >= 1 for n in observations)
    assert any(f != 1.0 for f in key_factors)


def test_render_shows_every_candidate_and_the_pick(planner, workload):
    plan = planner.plan(workload)
    text = plan.render()
    assert "candidate table" in text
    for candidate in plan.candidates:
        assert candidate.point.label() in text
    assert f"chosen: {plan.chosen.point.label()}" in text


def test_to_dict_is_json_shaped(planner, workload):
    payload = planner.plan(workload).to_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["chosen"] is not None
    assert len(payload["candidates"]) >= len({"scalar", "vector"})


def test_empty_input_still_plans(planner):
    ji = uniform_input(0, 0, n_keys=1, seed=1)
    result = planner.run(ji, learn=False)
    assert result.output_count == 0
    assert verify_result_plan(result) is None


def test_verify_flags_tampered_bookkeeping(planner, workload):
    result = planner.run(workload, learn=False)
    result.meta[PLAN_META_KEY]["predicted_wall_seconds"] = float("nan")
    assert "finite" in verify_result_plan(result)

    result = planner.run(workload, learn=False)
    result.meta[PLAN_META_KEY]["algorithm"] = "someone-else"
    assert "chose" in verify_result_plan(result)

    result = planner.run(workload, learn=False)
    del result.meta[PLAN_META_KEY]["phases"]
    assert "missing" in verify_result_plan(result)

"""Candidate enumeration and constraint handling."""

import pytest

from repro.api import ALGORITHMS
from repro.exec.backend import PARALLEL, SCALAR, VECTOR, parallel_status
from repro.faults.plan import SPILL_ALGORITHM_NAMES
from repro.plan import (
    CandidatePoint,
    Constraints,
    check_feasibility,
    enumerate_candidates,
    worker_ladder,
)


def test_worker_ladder_is_powers_of_two_up_to_the_cap():
    assert worker_ladder(1) == (1,)
    assert worker_ladder(2) == (1, 2)
    assert worker_ladder(4) == (1, 2, 4)
    # Non-power caps keep the cap itself as the top rung.
    assert worker_ladder(6) == (1, 2, 4, 6)


def test_enumeration_covers_every_algorithm():
    points = enumerate_candidates(Constraints(max_workers=2))
    assert {p.algorithm for p in points} == set(ALGORITHMS)
    # Deterministic order: sorted algorithms, registry-order backends.
    assert [p.algorithm for p in points] == sorted(
        p.algorithm for p in points)


def test_enumeration_respects_backend_and_algorithm_filters():
    points = enumerate_candidates(Constraints(
        algorithms=("csh",), backends=(VECTOR,)))
    assert points == [CandidatePoint("csh", VECTOR, 1)]


def test_parallel_candidates_climb_the_ladder_when_usable():
    usable, _ = parallel_status()
    points = enumerate_candidates(Constraints(
        algorithms=("cbase",), max_workers=4))
    parallel_points = [p for p in points if p.backend == PARALLEL]
    if usable:
        assert [p.workers for p in parallel_points] == [1, 2, 4]
    else:
        assert parallel_points == []


def test_labels_show_workers_only_for_parallel():
    assert CandidatePoint("csh", VECTOR).label() == "csh/vector"
    assert CandidatePoint("csh", PARALLEL, 2).label() == "csh/parallel@2"


def test_memory_budget_excludes_non_spill_algorithms():
    constraints = Constraints(memory_budget_bytes=1000)
    spill_algo = sorted(SPILL_ALGORITHM_NAMES)[0]
    non_spill = sorted(set(ALGORITHMS) - set(SPILL_ALGORITHM_NAMES))[0]
    over = check_feasibility(CandidatePoint(non_spill, VECTOR), 0.1,
                             estimated_bytes=5000, constraints=constraints)
    assert not over.ok and "memory budget" in over.reasons[0]
    spills = check_feasibility(CandidatePoint(spill_algo, VECTOR), 0.1,
                               estimated_bytes=5000, constraints=constraints)
    assert spills.ok
    under = check_feasibility(CandidatePoint(non_spill, VECTOR), 0.1,
                              estimated_bytes=500, constraints=constraints)
    assert under.ok


def test_deadline_excludes_slow_predictions():
    constraints = Constraints(deadline_ms=100.0)
    slow = check_feasibility(CandidatePoint("cbase", SCALAR), 0.5,
                             estimated_bytes=0, constraints=constraints)
    assert not slow.ok and "deadline" in slow.reasons[0]
    fast = check_feasibility(CandidatePoint("cbase", VECTOR), 0.05,
                             estimated_bytes=0, constraints=constraints)
    assert fast.ok


def test_constraints_describe_round_trips_to_json():
    import json
    described = Constraints(algorithms=("csh",), deadline_ms=5.0).describe()
    assert json.loads(json.dumps(described)) == described


def test_from_environment_picks_up_the_spill_budget(monkeypatch):
    from repro.store.spill import MEMORY_BUDGET_ENV
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "4096")
    assert Constraints.from_environment().memory_budget_bytes == 4096


def test_empty_constraint_set_is_a_config_error():
    from repro.errors import ConfigError
    from repro.plan import Planner
    from repro.data.generators import uniform_input
    planner = Planner()
    with pytest.raises(ConfigError):
        planner.plan(uniform_input(100, 100, n_keys=10, seed=1),
                     Constraints(algorithms=(), backends=()))

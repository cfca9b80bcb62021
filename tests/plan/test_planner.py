"""The planning rule: its branches, its stamp, and its CLI surfaces."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.generators import uniform_input
from repro.data.relation import JoinInput, Relation
from repro.data.zipf import ZipfWorkload
from repro.exec.backend import current_backend
from repro.faults.plan import SPILL_ALGORITHM_NAMES
from repro.plan import (
    BYTES_PER_TUPLE,
    PLAN_META_KEY,
    RULES,
    choose,
    verify_result_plan,
)
from repro.store.spill import MEMORY_BUDGET_ENV
from tests.conftest import assert_result_correct

#: 2000 + 2000 tuples at 12 bytes each.
_INPUT_BYTES = 48000


@pytest.fixture
def workload():
    return ZipfWorkload(2000, 2000, theta=1.0, seed=9).generate()


def _auto(join_input):
    return choose(join_input).run(join_input)


def _empty_s(n_r):
    keys = np.arange(n_r, dtype=np.uint32)
    empty = np.empty(0, dtype=np.uint32)
    return JoinInput(r=Relation(keys, keys, name="R"),
                     s=Relation(empty, empty, name="S"))


@pytest.mark.parametrize("n_s, budget, algorithm, rule", [
    (2000, None, "cbase-npj", "default"),
    (2000, _INPUT_BYTES - 1, "cbase", "memory-budget"),
    (2000, _INPUT_BYTES, "cbase-npj", "default"),
    (2000, _INPUT_BYTES + 1, "cbase-npj", "default"),
    (0, None, "cbase-npj", "default"),
], ids=["default", "budget-below-input", "budget-at-input",
        "budget-above-input", "empty-s"])
def test_rule_branches(n_s, budget, algorithm, rule):
    join_input = (ZipfWorkload(2000, n_s, theta=1.0, seed=9).generate()
                  if n_s else _empty_s(2000))
    pick = choose(join_input, budget)
    assert (pick.algorithm, pick.rule) == (algorithm, rule)
    assert pick.backend == current_backend()
    assert pick.input_bytes == BYTES_PER_TUPLE * (2000 + n_s)
    result = pick.run(join_input)
    assert_result_correct(result, join_input)
    assert result.meta[PLAN_META_KEY] == {
        "algorithm": algorithm, "backend": pick.backend, "rule": rule}
    assert verify_result_plan(result) is None


def test_executed_plan_is_correct_and_stamped(workload, monkeypatch):
    # The budget defaults to the environment's, as a spilled run's does.
    monkeypatch.setenv(MEMORY_BUDGET_ENV, str(_INPUT_BYTES - 1))
    result = _auto(workload)
    assert_result_correct(result, workload)
    assert result.meta[PLAN_META_KEY]["algorithm"] == result.algorithm \
        == "cbase"
    assert verify_result_plan(result) is None


def test_plan_meta_survives_jsonl_round_trip(workload, tmp_path):
    from repro.exec.serialize import (
        append_results_jsonl,
        results_from_jsonl_file,
    )
    result = _auto(workload)
    artifact = tmp_path / "planned.jsonl"
    append_results_jsonl([result], artifact)
    (reloaded,) = results_from_jsonl_file(artifact)
    assert verify_result_plan(reloaded) is None
    assert reloaded.meta[PLAN_META_KEY] == result.meta[PLAN_META_KEY]


def test_memory_budget_routes_to_spill_capable_algorithms(capsys):
    """``run --auto`` under a budget picks a join that spills, and the
    run really spills."""
    assert main(["run", "--auto", "--tuples", "4096",
                 "--memory-budget", "8192", "--backend", "vector"]) == 0
    out = capsys.readouterr().out
    assert "chosen: cbase/vector (rule memory-budget" in out
    assert RULES["memory-budget"][0] in SPILL_ALGORITHM_NAMES
    assert "spilled_partitions" in out
    assert "'rule': 'memory-budget'" in out


def test_auto_refuses_to_combine_with_a_forced_algorithm(capsys):
    assert main(["run", "--auto", "--algorithm", "csh"]) == 2
    assert "--auto chooses the algorithm" in capsys.readouterr().err


def test_render_shows_the_pick_and_its_rule(capsys):
    assert main(["plan", "--tuples", "2048"]) == 0
    out = capsys.readouterr().out
    assert "2048 x 2048 tuples" in out
    assert "input 49152 bytes, memory budget none" in out
    assert f"chosen: cbase-npj/{current_backend()} (rule default" in out


def test_verify_flags_tampered_bookkeeping(workload):
    result = _auto(workload)
    result.meta[PLAN_META_KEY]["algorithm"] = "someone-else"
    assert "chose" in verify_result_plan(result)

    result = _auto(workload)
    result.meta[PLAN_META_KEY]["backend"] = "elsewhere"
    assert "ran on" in verify_result_plan(result)

    result = _auto(workload)
    result.meta[PLAN_META_KEY]["rule"] = "memory-budget"
    assert "does not pick" in verify_result_plan(result)

    result = _auto(workload)
    del result.meta[PLAN_META_KEY]["rule"]
    assert "missing" in verify_result_plan(result)

    result = _auto(workload)
    result.meta[PLAN_META_KEY] = "cbase-npj"
    assert "flattened" in verify_result_plan(result)

    result = _auto(uniform_input(64, 64, n_keys=8, seed=1))
    del result.meta[PLAN_META_KEY]
    assert verify_result_plan(result) is None

"""The learned correction store: EWMA updates and persistence."""

import json

import pytest

from repro.exec.cost_model import blend_correction, clamp_correction
from repro.plan import CORRECTIONS_ENV, CorrectionStore, corrections_path_from_env


def test_unobserved_keys_default_to_one():
    store = CorrectionStore()
    assert store.factor("csh", "probe", "vector") == 1.0
    assert store.observations("csh", "probe", "vector") == 0


def test_first_observation_is_the_ratio_then_ewma():
    store = CorrectionStore(alpha=0.3)
    first = store.observe("csh", "probe", "vector", 1.0, 2.0)
    assert first == pytest.approx(2.0)
    second = store.observe("csh", "probe", "vector", 1.0, 4.0)
    assert second == pytest.approx(blend_correction(2.0, 4.0, alpha=0.3))
    assert store.observations("csh", "probe", "vector") == 2


def test_factors_are_clamped():
    store = CorrectionStore()
    huge = store.observe("csh", "probe", "vector", 1e-9, 1e9)
    assert huge == clamp_correction(huge)
    assert huge <= 1e3


def test_zero_base_observations_are_ignored():
    store = CorrectionStore()
    assert store.observe("csh", "probe", "vector", 0.0, 1.0) == 1.0
    assert len(store) == 0


def test_save_and_reload_round_trips(tmp_path):
    path = tmp_path / "plan_corrections.json"
    store = CorrectionStore(path=path)
    store.observe("csh", "probe", "vector", 1.0, 2.5)
    store.observe("cbase", "build", "parallel", 2.0, 1.0)
    assert store.save() == path

    reloaded = CorrectionStore(path=path)
    assert reloaded.factor("csh", "probe", "vector") == pytest.approx(2.5)
    assert reloaded.factor("cbase", "build", "parallel") == pytest.approx(0.5)
    assert reloaded.observations("csh", "probe", "vector") == 1


def test_in_memory_store_save_is_a_noop():
    assert CorrectionStore().save() is None


def test_corrupt_file_starts_the_store_empty(tmp_path):
    path = tmp_path / "plan_corrections.json"
    path.write_text("{not json", encoding="utf-8")
    store = CorrectionStore(path=path)
    # Corrupt corrections are a stale cache, never an error.
    assert store.factor("csh", "probe", "vector") == 1.0
    assert len(store) == 0


def test_old_schema_versions_are_discarded(tmp_path):
    path = tmp_path / "plan_corrections.json"
    path.write_text(json.dumps({
        "schema_version": 0,
        "entries": {"csh|probe|vector": {"factor": 9.0}},
    }), encoding="utf-8")
    assert CorrectionStore(path=path).factor("csh", "probe", "vector") == 1.0


def test_path_from_env(monkeypatch):
    monkeypatch.delenv(CORRECTIONS_ENV, raising=False)
    assert corrections_path_from_env() is None
    monkeypatch.setenv(CORRECTIONS_ENV, "/tmp/x.json")
    assert str(corrections_path_from_env()) == "/tmp/x.json"


def test_learn_from_results_reads_plan_metadata():
    class FakeResult:
        meta = {"plan": {
            "algorithm": "csh", "backend": "vector",
            "phases": [
                {"name": "probe", "base_wall_seconds": 1.0,
                 "realized_wall_seconds": 2.0},
                {"name": "build", "base_wall_seconds": 1.0,
                 "realized_wall_seconds": None},  # unrealized: skipped
            ],
        }}

    class PlanlessResult:
        meta = {}

    store = CorrectionStore()
    observed = store.learn_from_results([FakeResult(), PlanlessResult()])
    assert observed == 1
    assert store.factor("csh", "probe", "vector") == pytest.approx(2.0)


def test_learn_from_jsonl_round_trip(tmp_path):
    from repro.data.generators import uniform_input
    from repro.exec.serialize import append_results_jsonl
    from repro.plan import Planner

    planner = Planner(corrections=CorrectionStore())
    result = planner.run(uniform_input(500, 500, n_keys=50, seed=3),
                         learn=False)
    artifact = tmp_path / "traces.jsonl"
    append_results_jsonl([result], artifact)

    fresh = CorrectionStore()
    assert fresh.learn_from_jsonl(artifact) > 0
    plan = result.meta["plan"]
    assert fresh.observations(plan["algorithm"], plan["phases"][0]["name"],
                              plan["backend"]) >= 1

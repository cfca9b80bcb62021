"""The plan gate on a tiny grid: every oracle is sub-floor, so regret
auto-passes, but the artifacts and bit-identity are checked for real."""

import json

import pytest

from repro.plan import run_plan_gate


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    out = tmp_path_factory.mktemp("plan-gate")
    return run_plan_gate(n_tuples=1000, seed=7, repeats=1,
                         out_dir=str(out)), out


def test_gate_passes_and_writes_artifacts(gate):
    report, out = gate
    assert report.ok, report.render()
    assert all(d.identical for d in report.datasets)
    assert {d.dataset for d in report.datasets} == \
        {"zipf-1.0", "uniform", "dup-only", "empty-s"}

    candidates = json.loads(
        (out / "plan-candidates.json").read_text(encoding="utf-8"))
    regret = json.loads(
        (out / "regret-report.json").read_text(encoding="utf-8"))
    assert set(candidates) == {d.dataset for d in report.datasets}
    for table in candidates.values():
        assert table["chosen"] == "cbase-npj/vector"
        assert table["rule"] == "default"
        assert table["measurements"], "gate measured no candidates"
    assert regret["ok"] is True
    assert regret["threshold"] == 2.0
    assert all(d["identical"] for d in regret["datasets"])


def test_gate_report_renders_a_verdict(gate):
    report, _ = gate
    text = report.render()
    assert "PASS" in text
    assert "regret threshold 2.0x" in text
    for d in report.datasets:
        assert d.dataset in text


def test_regret_is_picked_over_oracle(gate):
    report, _ = gate
    for d in report.datasets:
        picked = [m for m in d.measurements if m.picked]
        assert len(picked) == 1
        assert {m.algorithm for m in d.measurements} == {
            "cbase", "cbase-npj", "csh", "gbase", "gsh"}
        oracle_wall = min(m.wall_seconds for m in d.measurements)
        assert d.oracle_wall_seconds == oracle_wall
        if oracle_wall > 0:
            assert d.regret == picked[0].wall_seconds / oracle_wall

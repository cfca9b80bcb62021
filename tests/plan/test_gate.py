"""The plan gate at test scale: tiny inputs, vector-only, sub-floor."""

import json

from repro.exec.backend import VECTOR
from repro.plan import run_plan_gate


def test_gate_passes_and_writes_artifacts(tmp_path):
    report = run_plan_gate(n_tuples=1500, seed=42, repeats=1,
                           backends=(VECTOR,), out_dir=str(tmp_path))
    # At this scale every oracle sits under the timing floor, so the
    # regret check auto-passes — but bit-identity must hold for real.
    assert report.ok, report.render()
    assert all(d.identical for d in report.datasets)
    assert {d.dataset for d in report.datasets} == \
        {"zipf-1.0", "uniform", "dup-only", "empty-s"}

    candidates = json.loads(
        (tmp_path / "plan-candidates.json").read_text(encoding="utf-8"))
    regret = json.loads(
        (tmp_path / "regret-report.json").read_text(encoding="utf-8"))
    assert set(candidates) == {d.dataset for d in report.datasets}
    for table in candidates.values():
        assert table["chosen"] is not None
        assert table["measurements"], "gate measured no candidates"
    assert regret["ok"] is True
    assert regret["threshold"] == 2.0


def test_gate_report_renders_a_verdict(tmp_path):
    report = run_plan_gate(n_tuples=1000, seed=7, repeats=1,
                           backends=(VECTOR,))
    text = report.render()
    assert "PASS" in text
    assert "regret threshold 2.0x" in text
    for d in report.datasets:
        assert d.dataset in text


def test_regret_is_picked_over_oracle():
    report = run_plan_gate(n_tuples=1000, seed=7, repeats=1,
                           backends=(VECTOR,))
    for d in report.datasets:
        picked = [m for m in d.measurements if m.picked]
        assert len(picked) == 1
        oracle_wall = min(m.measured_wall_seconds for m in d.measurements)
        assert d.oracle_wall_seconds == oracle_wall
        if oracle_wall > 0:
            assert d.regret == \
                picked[0].measured_wall_seconds / oracle_wall

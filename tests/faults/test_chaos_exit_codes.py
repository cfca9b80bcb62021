"""Every ``repro chaos`` mode runs through the one runner and its contract.

CI's chaos jobs gate on the process exit code and upload the runner's
``chaos-checks.json``; a harness that prints FAILED but returns 0, or
that dies before writing its artifact, would go green or leave nothing
to debug.  These tests pin the contract for all three modes — pipeline,
--serve and --spill — by stubbing each source's scenario at the CLI
boundary, and pin the runner itself with raising and failing sources.
"""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.faults.chaos import CHECKS_ARTIFACT, Source, run_checks

SCHEMA = {"mode", "backend", "seed", "tuples", "ok", "checks"}


def _stub(monkeypatch, factory: str, ok: bool, seen=None):
    """Replace one CLI source factory by a source recording one check."""
    def make(*args):
        if seen is not None:
            seen.extend(args)

        def scenario(checks):
            checks.record("stub check", ok)
            return {"stub": True}
        return Source(factory.split("_")[0], 0, 8192, scenario)

    monkeypatch.setattr(cli, factory, make)


def test_pipeline_chaos_failure_exits_nonzero(monkeypatch):
    _stub(monkeypatch, "pipeline_source", ok=False)
    assert cli.main(["chaos"]) == 1
    _stub(monkeypatch, "pipeline_source", ok=True)
    assert cli.main(["chaos"]) == 0


def test_serve_chaos_exit_code_passes_through(monkeypatch):
    _stub(monkeypatch, "serve_source", ok=False)
    assert cli.main(["chaos", "--serve", "--tuples", "64"]) == 1
    _stub(monkeypatch, "serve_source", ok=True)
    assert cli.main(["chaos", "--serve", "--tuples", "64"]) == 0


def test_spill_chaos_exit_code_passes_through(monkeypatch):
    _stub(monkeypatch, "spill_source", ok=False)
    assert cli.main(["chaos", "--spill"]) == 1
    _stub(monkeypatch, "spill_source", ok=True)
    assert cli.main(["chaos", "--spill"]) == 0


def test_serve_and_spill_are_mutually_exclusive(capsys):
    assert cli.main(["chaos", "--serve", "--spill"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_spill_chaos_receives_artifact_dir(monkeypatch, tmp_path):
    seen = []
    _stub(monkeypatch, "spill_source", ok=True, seen=seen)
    assert cli.main(["chaos", "--spill", "--tuples", "4096",
                     "--algorithms", "cbase",
                     "--artifact-dir", str(tmp_path)]) == 0
    assert seen == [4096, 1.0, 42, ["cbase"], str(tmp_path)]
    artifact = json.loads((tmp_path / CHECKS_ARTIFACT).read_text())
    assert SCHEMA <= set(artifact) and artifact["stub"] is True


@pytest.mark.parametrize("mode", ["--serve", "--spill", None],
                         ids=["serve", "spill", "pipeline"])
def test_every_mode_writes_the_one_artifact(monkeypatch, tmp_path, mode):
    factory = {"--serve": "serve_source",
               "--spill": "spill_source"}.get(mode, "pipeline_source")
    _stub(monkeypatch, factory, ok=False)
    argv = ["chaos", "--artifact-dir", str(tmp_path)] + ([mode] if mode
                                                          else [])
    assert cli.main(argv) == 1
    artifact = json.loads((tmp_path / CHECKS_ARTIFACT).read_text())
    assert SCHEMA <= set(artifact)
    assert artifact["ok"] is False
    assert [c["name"] for c in artifact["checks"]] == [
        "stub check", "scenario ran to completion"]


def test_raising_source_fails_and_still_writes_its_artifact(tmp_path,
                                                            capsys):
    def scenario(checks):
        checks.record("first check", True)
        raise TimeoutError("child never exited")

    code = run_checks("raising", Source("spill", 3, 4096, scenario),
                      tmp_path)
    assert code == 1
    artifact = json.loads((tmp_path / CHECKS_ARTIFACT).read_text())
    assert artifact["mode"] == "spill" and artifact["seed"] == 3
    assert artifact["tuples"] == 4096 and artifact["ok"] is False
    last = artifact["checks"][-1]
    assert last["name"] == "scenario ran to completion"
    assert not last["ok"] and "TimeoutError" in last["detail"]
    assert "raising: 1/2 check(s) FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("argv, minimum", [
    (["chaos", "--tuples", "4096"], "8192"),
    (["chaos", "--spill", "--tuples", "2048"], "4096"),
], ids=["pipeline", "spill"])
def test_too_small_a_sweep_is_refused_up_front(capsys, argv, minimum):
    assert cli.main(argv) == 2
    assert f">= {minimum}" in capsys.readouterr().err


def test_spill_refuses_algorithms_it_cannot_spill(capsys):
    assert cli.main(["chaos", "--spill", "--algorithms", "cbase,gbase"]) == 2
    assert "gbase" in capsys.readouterr().err

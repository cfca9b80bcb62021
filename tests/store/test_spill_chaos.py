"""``repro chaos --spill`` end to end: disk faults, SIGKILL and resume.

Runs the real spill source through the CLI on the vector backend at the
CI scale, so the kill sweep spawns and kills real child processes and
the resumed runs must match the in-RAM baseline bit for bit.
"""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.exec.backend import BACKEND_ENV
from repro.faults.chaos import CHECKS_ARTIFACT

#: Checks the spill source records per algorithm at the default kill
#: points (clean spill, four seeded disk faults, two exhausted write
#: ladders, two typed errors, two kill-and-resume rounds with rot and a
#: torn ledger tail after the first).
CHECKS_PER_ALGORITHM = 53


@pytest.mark.parametrize("extra, theta, algorithms", [
    ([], 1.0, ["cbase", "csh"]),
    (["--theta", "0.5"], 0.5, ["cbase", "csh"]),
    (["--algorithms", "cbase"], 1.0, ["cbase"]),
], ids=["default", "theta-0.5", "cbase-only"])
def test_spill_chaos_is_green_end_to_end(monkeypatch, tmp_path, extra,
                                         theta, algorithms):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    argv = ["chaos", "--spill", "--seed", "42", "--tuples", "8192",
            "--artifact-dir", str(tmp_path)] + extra
    assert cli.main(argv) == 0
    artifact = json.loads((tmp_path / CHECKS_ARTIFACT).read_text())
    assert artifact["ok"] is True
    assert (artifact["mode"], artifact["backend"]) == ("spill", "vector")
    assert (artifact["seed"], artifact["tuples"]) == (42, 8192)
    assert artifact["theta"] == theta
    assert artifact["algorithms"] == algorithms
    names = [check["name"] for check in artifact["checks"]]
    assert len(names) == CHECKS_PER_ALGORITHM * len(algorithms) + 1
    assert {name.split("/")[0] for name in names[:-1]} == set(algorithms)
    # The killed runs joined the same workload as the baseline.
    for algorithm in algorithms:
        state = json.loads(
            (tmp_path / f"{algorithm}-kill1" / "run.json").read_text())
        assert state["workload"]["theta"] == theta

"""The chaos-under-load harness itself stays green end to end."""

import json

from repro.faults.chaos import CHECKS_ARTIFACT, run_checks
from repro.serve.chaos import serve_source


def test_serve_chaos_sweep_is_green_and_writes_health(tmp_path):
    source = serve_source(2048, theta=1.0, seed=7, clients=2, requests=6)
    assert run_checks("serve chaos", source, tmp_path) == 0
    artifact = json.loads((tmp_path / CHECKS_ARTIFACT).read_text())
    assert artifact["mode"] == "serve" and artifact["ok"] is True
    assert artifact["health"]["ok"] is True
    assert artifact["health"]["metrics"]["serve.health.inflight"] == 0
    checks = artifact["checks"]
    assert checks and all(check["ok"] for check in checks)

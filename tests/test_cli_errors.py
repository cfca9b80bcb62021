"""The CLI turns library errors into one line and an exit code.

A :class:`ConfigError` or :class:`WorkloadError` is a request refused up
front (exit 2); any other :class:`ReproError` is a failure (exit 1).
Neither prints a traceback.
"""

import pytest

from repro.cli import main


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out
    return lines[0]


@pytest.mark.parametrize("argv, code, needle", [
    (["run", "--tuples", "-5"], 2, "non-negative"),
    (["run", "--resume", "/nonexistent"], 1, "no run state"),
    (["diff", "--algorithms", "nope"], 2, "unknown algorithm 'nope'"),
], ids=["workload-error", "spill-error", "config-error"])
def test_typed_errors_print_one_line(capsys, argv, code, needle):
    assert main(argv) == code
    assert needle in _one_error_line(capsys)


def test_single_backend_differential_is_refused(capsys):
    assert main(["diff", "--backends", "vector"]) == 2
    assert "two or more backends" in _one_error_line(capsys)


def test_served_differential_refuses_backends(capsys):
    assert main(["diff", "--served", "--backends", "scalar,vector"]) == 2
    assert "drop --backends" in _one_error_line(capsys)


def test_sweep_without_thetas_is_refused(capsys):
    assert main(["sweep", "--thetas", ","]) == 2
    assert "names no zipf factor" in _one_error_line(capsys)


def test_pipeline_chaos_refuses_unknown_algorithms(capsys):
    assert main(["chaos", "--algorithms", "nope"]) == 2
    assert "got nope" in _one_error_line(capsys)

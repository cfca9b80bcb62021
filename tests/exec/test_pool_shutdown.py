"""WorkerPool.shutdown() must be safe whatever state the pool is in.

The serve daemon and atexit both call shutdown on whatever pool object
exists at that moment — including one whose ``__init__`` never finished
(ConfigError mid-construction), one built inline (no processes), or one
already shut down.  None of those may raise.  A driver that dies without
calling shutdown at all (SIGKILL) must not leak its workers either.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.exec.parallel.pool import WorkerPool


def test_shutdown_on_never_started_pool_is_a_noop():
    # A partially-constructed instance: __new__ only, no attributes at
    # all — the state shutdown sees when __init__ raised early.
    pool = WorkerPool.__new__(WorkerPool)
    pool.shutdown()  # must not raise
    assert pool._procs == []
    assert pool._tasks is None
    assert pool._results is None


def test_shutdown_tolerates_half_built_attributes():
    pool = WorkerPool.__new__(WorkerPool)
    pool._procs = []
    pool._tasks = None
    # _results intentionally missing entirely
    pool.shutdown()
    pool.shutdown()  # and again


def test_inline_pool_shutdown_is_idempotent():
    pool = WorkerPool(1)
    assert not pool.uses_processes
    pool.shutdown()
    pool.shutdown()
    assert pool._procs == []


def test_process_pool_double_shutdown(parallel_pool_env):
    pool = WorkerPool(2)
    try:
        assert pool.uses_processes
        assert pool.alive_workers() == 2
    finally:
        pool.shutdown()
    assert pool._procs == [] and not pool.uses_processes
    pool.shutdown()  # second call finds everything cleared
    assert pool._tasks is None and pool._results is None


def _exited(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to inspect orphaned workers")
def test_workers_exit_when_their_driver_is_sigkilled():
    code = ("import os, signal\n"
            "from repro.exec.parallel.pool import WorkerPool\n"
            "pool = WorkerPool(2)\n"
            "print(*(p.pid for p in pool._procs), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH", "")) if p))
    with subprocess.Popen([sys.executable, "-c", code], env=env,
                          stdout=subprocess.PIPE, text=True) as driver:
        pids = [int(pid) for pid in driver.stdout.readline().split()]
        assert driver.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 5.0
        while (not all(_exited(pid) for pid in pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        leaked = [pid for pid in pids if not _exited(pid)]
        for pid in leaked:  # never leave them behind, even on failure
            os.kill(pid, signal.SIGKILL)
    assert len(pids) == 2
    assert not leaked, f"orphaned pool workers still running: {leaked}"

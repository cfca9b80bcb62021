"""Units for the parallel backend: arenas, pool, gating, and fallback."""

import warnings

import numpy as np
import pytest

from repro.api import make_join
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError, ExecutionError
from repro.exec import backend as backend_mod
from repro.exec.backend import PARALLEL, VECTOR, dispatch, use_backend
from repro.exec.differential import compare_results
from repro.exec.parallel import (
    DEFAULT_MIN_PARALLEL_TUPLES,
    MIN_TUPLES_ENV,
    WORKERS_ENV,
    SharedArena,
    WorkerPool,
    morsel_pool,
    shared_memory_probe,
    shutdown_pool,
)
from repro.exec.parallel import pool as pool_mod
from repro.exec.parallel.arena import Attachment, attached, file_backed_ref
from repro.exec.parallel.kernels import KERNELS, run_kernel
from repro.obs import tracing

_SHM_REASON = shared_memory_probe()
needs_shm = pytest.mark.skipif(
    _SHM_REASON is not None,
    reason=f"shared memory unusable here: {_SHM_REASON}")


# ---------------------------------------------------------------- arena

def test_shared_memory_probe_returns_none_or_reason():
    assert _SHM_REASON is None or isinstance(_SHM_REASON, str)


def test_inline_arena_carries_arrays_directly():
    with SharedArena(use_shm=False) as arena:
        data = np.arange(10, dtype=np.uint32)
        ref = arena.share(data)
        assert ref.shm_name is None
        assert np.array_equal(ref.array, data)
        out, out_ref = arena.output_like(data)
        assert out is data  # worker writes land in the caller's array
        view, empty_ref = arena.empty(4, np.int64)
        assert view.shape == (4,) and empty_ref.array is view


@needs_shm
def test_shm_arena_round_trips_through_attachment():
    data = np.arange(100, dtype=np.uint32)
    with SharedArena(use_shm=True) as arena:
        ref = arena.share(data)
        assert ref.shm_name is not None and ref.array is None
        with attached(ref) as (arr,):
            assert np.array_equal(arr, data)
            arr[0] = 999  # attached views alias the driver's segment
        view, out_ref = arena.empty(3, np.uint64)
        view[:] = (1, 2, 3)
        with attached(out_ref) as (out,):
            assert out.tolist() == [1, 2, 3]


@needs_shm
def test_shm_arena_handles_zero_size_arrays():
    with SharedArena(use_shm=True) as arena:
        ref = arena.share(np.empty(0, dtype=np.uint32))
        with attached(ref) as (arr,):
            assert arr.size == 0


def test_file_backed_ref_covers_read_only_memmap_slices(tmp_path):
    data = np.arange(64, dtype=np.uint32)
    path = tmp_path / "chunk.bin"
    data.tofile(path)
    mapped = np.memmap(path, dtype=np.uint32, mode="r")
    morsel = mapped[3:9]
    ref = file_backed_ref(morsel)
    assert ref is not None
    assert ref.path == str(path)
    assert ref.offset == 3 * 4  # slice start, in bytes
    assert ref.shape == (6,) and ref.shm_name is None and ref.array is None
    # Everything that can't be shipped as a path ref declines to None:
    # plain arrays, writable mappings, and non-contiguous views.
    assert file_backed_ref(np.arange(8, dtype=np.uint32)) is None
    writable = np.memmap(path, dtype=np.uint32, mode="r+")
    assert file_backed_ref(writable) is None
    assert file_backed_ref(mapped[::2]) is None


def test_attachment_maps_path_refs_and_closes(tmp_path):
    data = np.arange(32, dtype=np.uint64)
    path = tmp_path / "chunk.bin"
    data.tofile(path)
    mapped = np.memmap(path, dtype=np.uint64, mode="r")
    ref = file_backed_ref(mapped[10:20])
    attachment = Attachment(ref)
    assert np.array_equal(attachment.array, data[10:20])
    attachment.close()
    assert attachment.array is None
    attachment.close()  # idempotent


def test_shared_arena_ships_file_mapped_morsels_zero_copy(tmp_path):
    data = np.arange(128, dtype=np.uint32)
    path = tmp_path / "chunk.bin"
    data.tofile(path)
    mapped = np.memmap(path, dtype=np.uint32, mode="r")
    # No segment is ever allocated on this path, so the test runs even
    # where POSIX shared memory does not.
    with tracing("arena") as tracer, SharedArena(use_shm=True) as arena:
        ref = arena.share(mapped[16:48])
        assert ref.path == str(path) and ref.shm_name is None
        with attached(ref) as (arr,):
            assert np.array_equal(arr, data[16:48])
    metrics = tracer.record().metrics
    assert metrics["store.zero_copy_shares"]["value"] == 1


# ----------------------------------------------------------------- pool

def test_inline_pool_runs_kernels_in_process():
    pool = WorkerPool(1)
    assert not pool.uses_processes
    with SharedArena(use_shm=False) as arena:
        ids = arena.share(np.array([0, 1, 1, 2, 2, 2], dtype=np.int64))
        [hist] = pool.run("partition_hist",
                          [{"ids": ids, "a": 0, "b": 6, "fanout": 4}])
    assert hist.tolist() == [1, 2, 3, 0]
    pool.shutdown()  # no-op for inline pools


@needs_shm
def test_process_pool_returns_results_in_task_order():
    pool = WorkerPool(2)
    try:
        assert pool.uses_processes
        with SharedArena(use_shm=True) as arena:
            ids = arena.share(np.arange(8, dtype=np.int64) % 4)
            specs = [{"ids": ids, "a": a, "b": a + 4, "fanout": 4}
                     for a in (0, 4)]
            results = pool.run("partition_hist", specs)
        assert [r.tolist() for r in results] == [[1, 1, 1, 1], [1, 1, 1, 1]]
        pids = set(pool.run("worker_identity", [{}, {}, {}, {}]))
        assert pids  # real child processes answered
    finally:
        pool.shutdown()


@needs_shm
def test_worker_failure_raises_typed_execution_error():
    pool = WorkerPool(2)
    try:
        with pytest.raises(ExecutionError) as excinfo:
            pool.run("no-such-kernel", [{}])
        assert "no-such-kernel" in str(excinfo.value)
    finally:
        pool.shutdown()


def test_run_kernel_dispatches_registry():
    assert set(KERNELS) >= {"partition_hist", "partition_scatter",
                            "refine_chunk", "match_stats"}
    assert not {"expand_count", "expand_write"} & set(KERNELS)
    assert isinstance(run_kernel("worker_identity", {}), int)


def test_worker_count_env_validation(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert pool_mod.worker_count() == 3
    monkeypatch.setenv(WORKERS_ENV, "zero")
    with pytest.raises(ConfigError):
        pool_mod.worker_count()
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ConfigError):
        pool_mod.worker_count()
    monkeypatch.delenv(WORKERS_ENV)
    assert pool_mod.worker_count() >= 1


def test_min_tuples_env_validation(monkeypatch):
    monkeypatch.delenv(MIN_TUPLES_ENV, raising=False)
    assert pool_mod.min_parallel_tuples() == DEFAULT_MIN_PARALLEL_TUPLES
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    assert pool_mod.min_parallel_tuples() == 0
    monkeypatch.setenv(MIN_TUPLES_ENV, "-1")
    with pytest.raises(ConfigError):
        pool_mod.min_parallel_tuples()


def test_get_pool_rebuilds_when_worker_count_changes(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    try:
        first = pool_mod.get_pool()
        assert first.n_workers == 1 and not first.uses_processes
        assert pool_mod.get_pool() is first  # cached while env is stable
        if _SHM_REASON is None:
            monkeypatch.setenv(WORKERS_ENV, "2")
            second = pool_mod.get_pool()
            assert second is not first and second.n_workers == 2
    finally:
        shutdown_pool()


# --------------------------------------------------------------- gating

def test_morsel_pool_requires_parallel_backend(monkeypatch):
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    with use_backend(VECTOR):
        assert morsel_pool(1 << 20) is None


def test_morsel_pool_respects_min_tuples(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    monkeypatch.setenv(MIN_TUPLES_ENV, "1000")
    try:
        with use_backend(PARALLEL):
            assert morsel_pool(999) is None
            if _SHM_REASON is None:
                assert morsel_pool(1000) is not None
    finally:
        shutdown_pool()


# ------------------------------------------------------------- fallback

@pytest.fixture
def unavailable_parallel(monkeypatch):
    """Pretend the host cannot do shared memory; reset the warn latch."""
    monkeypatch.setattr(pool_mod, "_availability",
                        (False, "unit-test: no shared memory"))
    monkeypatch.setattr(backend_mod, "_warned_fallback", False)


def test_require_parallel_raises_typed_config_error(unavailable_parallel):
    with pytest.raises(ConfigError) as excinfo:
        backend_mod.require_parallel()
    message = str(excinfo.value)
    assert "REPRO_BACKEND=vector" in message
    assert excinfo.value.context["backend"] == PARALLEL


def test_dispatch_degrades_to_vector_with_one_warning(unavailable_parallel):
    def scalar():
        return "scalar"

    def vector():
        return "vector"

    def parallel():
        return "parallel"

    with use_backend(PARALLEL):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(scalar, vector, parallel) is vector
            assert dispatch(scalar, vector, parallel) is vector
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1  # warn once per process, not per call
        assert "falling back" in str(runtime[0].message)


def test_morsel_pool_gates_off_when_unavailable(unavailable_parallel,
                                                monkeypatch):
    monkeypatch.setenv(MIN_TUPLES_ENV, "0")
    with use_backend(PARALLEL):
        assert morsel_pool(1 << 20) is None


def test_require_parallel_passes_when_available(monkeypatch):
    if _SHM_REASON is not None:
        pytest.skip(f"shared memory unusable here: {_SHM_REASON}")
    backend_mod.require_parallel()  # must not raise


# ---------------------------------------------------- end-to-end checks

@needs_shm
def test_parallel_join_matches_vector_with_real_pool(parallel_pool_env):
    join_input = ZipfWorkload(4096, 4096, theta=1.0, seed=3).generate()
    results = {}
    for backend in (VECTOR, PARALLEL):
        with use_backend(backend):
            results[backend] = make_join("csh").run(join_input)
    assert compare_results(results[VECTOR], results[PARALLEL]) == []
    assert results[PARALLEL].meta["backend"] == PARALLEL


# ------------------------------------------------------------- healing

def test_respawn_budget_env_validation(monkeypatch):
    from repro.exec.parallel import DEFAULT_MAX_RESPAWNS, RESPAWNS_ENV

    monkeypatch.delenv(RESPAWNS_ENV, raising=False)
    assert pool_mod.respawn_budget() == DEFAULT_MAX_RESPAWNS
    monkeypatch.setenv(RESPAWNS_ENV, "0")
    assert pool_mod.respawn_budget() == 0
    monkeypatch.setenv(RESPAWNS_ENV, "-1")
    with pytest.raises(ConfigError):
        pool_mod.respawn_budget()
    monkeypatch.setenv(RESPAWNS_ENV, "many")
    with pytest.raises(ConfigError):
        pool_mod.respawn_budget()


def test_liveness_snapshot_and_inline_kill():
    import os

    pool = WorkerPool(1)
    assert pool.liveness() == {
        "workers": 1, "alive": 1, "processes": False,
        "respawns": 0, "max_respawns": pool.max_respawns,
        "exhausted": False,
    }
    assert pool.kill_worker(0) is None  # inline pools have no processes
    assert pool.heal() == 0
    assert os.getpid()  # inline liveness never touches other processes


def test_current_liveness_is_none_without_a_pool():
    shutdown_pool()
    assert pool_mod.current_liveness() is None
    assert pool_mod.current_liveness(heal=True) is None


@needs_shm
def test_heal_respawns_a_killed_worker():
    pool = WorkerPool(2, max_respawns=3)
    pool.poll_seconds = 0.05
    try:
        pid = pool.kill_worker(0)
        assert pid is not None
        assert pool.alive_workers() == 1
        assert pool.heal() == 1
        assert pool.alive_workers() == 2
        assert pool.respawns == 1 and not pool.exhausted
        # The healed pool still computes.
        pids = pool.run("worker_identity", [{}, {}])
        assert all(isinstance(p, int) for p in pids)
        assert pool.kill_worker(99) is None  # out-of-range is a no-op
    finally:
        pool.shutdown()


@needs_shm
def test_dead_workers_mid_run_heal_and_reenqueue_exactly_once():
    import os

    pool = WorkerPool(2, max_respawns=2)
    pool.poll_seconds = 0.05
    try:
        assert pool.kill_worker(0) is not None
        assert pool.kill_worker(1) is not None
        # Every morsel the dead workers would have taken is re-enqueued
        # (dedup by task id) and computed by the respawned workers.
        pids = pool.run("worker_identity", [{}, {}, {}, {}])
        assert len(pids) == 4
        assert all(isinstance(p, int) and p != os.getpid() for p in pids)
        assert pool.respawns == 2
        assert not pool.exhausted
        assert pool.alive_workers() == 2
    finally:
        pool.shutdown()


@needs_shm
def test_exhausted_pool_finishes_morsels_inline():
    import os

    pool = WorkerPool(2, max_respawns=0)
    pool.poll_seconds = 0.05
    try:
        assert pool.kill_worker(0) is not None
        assert pool.kill_worker(1) is not None
        # No respawn budget: the run still answers, computed inline.
        pids = pool.run("worker_identity", [{}, {}, {}])
        assert pids == [os.getpid()] * 3
        assert pool.exhausted
        assert pool.alive_workers() == 0
        assert pool.liveness()["exhausted"] is True
    finally:
        pool.shutdown()


@needs_shm
def test_morsel_pool_warns_once_and_degrades_when_exhausted(
        parallel_pool_env):
    from repro.exec.parallel import reset_exhaustion_warning

    reset_exhaustion_warning()
    try:
        with use_backend(PARALLEL):
            pool = pool_mod.get_pool()
            pool.exhausted = True
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert morsel_pool(1 << 20) is None
                assert morsel_pool(1 << 20) is None
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1  # warn once, then degrade silently
        assert "respawn budget" in str(runtime[0].message)
    finally:
        reset_exhaustion_warning()


@needs_shm
def test_current_liveness_heals_killed_workers(parallel_pool_env):
    pool = pool_mod.get_pool()
    pool.poll_seconds = 0.05
    assert pool.kill_worker(0) is not None
    live = pool_mod.current_liveness(heal=True)
    assert live["alive"] == 2
    assert live["respawns"] == 1
    assert live["exhausted"] is False

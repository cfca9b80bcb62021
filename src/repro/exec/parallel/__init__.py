"""Morsel-driven multicore execution over shared-memory arenas.

The third execution backend (``REPRO_BACKEND=parallel``): a persistent
:class:`~repro.exec.parallel.pool.WorkerPool` of real processes computes
the partition scatter, the partition refine and the match-group stats
over pooled ``multiprocessing.shared_memory`` arenas, one morsel at a
time.  Table build, probe and pair expansion stay in the driver.

Division of labour:

* the **driver** (the ordinary pipeline code) prices each phase on the
  same per-thread segments and queue tasks the simulated
  :class:`~repro.cpu.threads.ThreadPool` uses, performs all operation
  accounting and fault injection, cuts the pool's morsels
  (``n_workers * MORSELS_PER_WORKER`` per phase) and merges morsel
  results with order-independent or index-ordered reductions;
* **workers** are pure compute (see :mod:`repro.exec.parallel.kernels`).

That split is what makes the backend observationally identical to
``vector``: counters, simulated seconds, output count/checksum, trace
structure, and fault behaviour cannot depend on the real worker count.

:func:`morsel_pool` is the single gate the hot paths consult: it returns
the pool only when the parallel backend is active, usable on this host,
and the phase is large enough to amortize morsel overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.parallel.arena import ArrayRef, SharedArena, shared_memory_probe
from repro.exec.parallel.pool import (
    DEFAULT_MAX_RESPAWNS,
    DEFAULT_MIN_PARALLEL_TUPLES,
    MIN_TUPLES_ENV,
    RESPAWNS_ENV,
    WORKERS_ENV,
    WorkerPool,
    availability,
    current_liveness,
    current_pool,
    get_pool,
    min_parallel_tuples,
    reset_availability_cache,
    respawn_budget,
    shutdown_pool,
    worker_count,
)

#: Morsels handed out per worker (the pool's own, unpriced fan-out), so
#: the queue always holds spare morsels for early finishers to steal.
MORSELS_PER_WORKER = 2

_warned_exhausted = False


def reset_exhaustion_warning() -> None:
    """Re-arm the warn-once exhaustion message (tests)."""
    global _warned_exhausted
    _warned_exhausted = False


def morsel_pool(n_tuples: int) -> Optional[WorkerPool]:
    """The pool to run an ``n_tuples``-sized phase on, or None.

    None means "stay on the vector path": the parallel backend is not the
    ambient backend, shared memory is unusable here, the phase is too
    small to engage the pool (``REPRO_PARALLEL_MIN_TUPLES``), or the
    pool's worker-respawn budget is exhausted — the last case warns once
    and degrades every later phase to the (bit-identical) vector
    rendition, mirroring the GPU -> CPU fallback ladder.
    """
    from repro.exec.backend import PARALLEL, current_backend
    if current_backend() != PARALLEL:
        return None
    usable, _reason = availability()
    if not usable:
        return None
    if n_tuples < min_parallel_tuples():
        return None
    pool = get_pool()
    pool.heal()
    if pool.exhausted:
        global _warned_exhausted
        if not _warned_exhausted:
            _warned_exhausted = True
            import warnings
            warnings.warn(
                "parallel worker pool exhausted its respawn budget "
                f"({pool.respawns}/{pool.max_respawns} used); degrading "
                "to the vector backend rendition",
                RuntimeWarning, stacklevel=2)
        return None
    return pool


__all__ = [
    "ArrayRef",
    "DEFAULT_MAX_RESPAWNS",
    "DEFAULT_MIN_PARALLEL_TUPLES",
    "MIN_TUPLES_ENV",
    "MORSELS_PER_WORKER",
    "RESPAWNS_ENV",
    "SharedArena",
    "WORKERS_ENV",
    "WorkerPool",
    "availability",
    "current_liveness",
    "current_pool",
    "get_pool",
    "min_parallel_tuples",
    "morsel_pool",
    "reset_availability_cache",
    "reset_exhaustion_warning",
    "respawn_budget",
    "shutdown_pool",
    "worker_count",
]

"""Execution-backend selection: ``scalar``, ``vector``, ``parallel``.

Every hot phase of the five join pipelines — radix scatter, chained-table
build/probe, the no-partition join's global probe, the GPU simulator's
block-cost evaluation, GSH's skew split — exists in functionally
identical renditions:

* ``vector`` (the default) — NumPy batch evaluation: ``np.bincount``
  histograms, cumulative-sum bases, single-pass fancy-index scatters, and
  matching through a hash-sorted key-group index and its bucket
  directory.  This is the fast path that keeps the Python executors
  bandwidth-bound instead of interpreter-bound.
* ``scalar`` — a literal per-tuple Python rendition of the paper's
  algorithms (tuple-at-a-time scatter loops, chain walks in lockstep).
  It is the executable specification: slow, obvious, and used by the
  differential harness to pin the vector path down to bit-identical
  outputs, :class:`~repro.exec.counters.OpCounters`, and phase structure.
* ``parallel`` — the vector phases executed morsel-by-morsel on a
  persistent multiprocessing worker pool over shared-memory arenas
  (:mod:`repro.exec.parallel`).  Phases without a dedicated parallel
  rendition — and hosts where shared memory is unusable — run the vector
  one; either way results stay bit-identical, only wall time changes.

Selection is ambient.  The process default comes from the
``REPRO_BACKEND`` environment variable (``vector`` when unset); tests and
the differential harness override it lexically with :func:`use_backend`::

    with use_backend("scalar"):
        result = join(workload, algorithm="csh")

Backend choice may never change *what* is computed — only how.  The
differential test matrix (``tests/test_backend_differential.py``) and the
hypothesis property suite enforce that invariant for every algorithm.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, TypeVar

from repro.errors import ConfigError

SCALAR = "scalar"
VECTOR = "vector"
PARALLEL = "parallel"

#: All selectable backends.
BACKENDS = (SCALAR, VECTOR, PARALLEL)

#: Environment variable holding the process-wide default backend.
BACKEND_ENV = "REPRO_BACKEND"

_DEFAULT = VECTOR

_override: ContextVar[Optional[str]] = ContextVar("repro_backend_override",
                                                  default=None)

_F = TypeVar("_F", bound=Callable)

#: One fallback warning per process keeps degraded sandboxes quiet.
_warned_fallback = False


def validate_backend(name: str) -> str:
    """Return ``name`` normalized, or raise a :class:`ConfigError`."""
    normalized = str(name).strip().lower()
    if normalized not in BACKENDS:
        raise ConfigError(
            f"unknown execution backend {name!r}; choose one of "
            f"{list(BACKENDS)} (set {BACKEND_ENV} or use "
            "repro.exec.backend.use_backend)",
            backend=str(name), valid=list(BACKENDS),
        )
    return normalized


def backend_from_env() -> str:
    """The process default backend from ``REPRO_BACKEND`` (else vector)."""
    raw = os.environ.get(BACKEND_ENV, "").strip()
    if not raw:
        return _DEFAULT
    return validate_backend(raw)


def current_backend() -> str:
    """The backend in effect: the innermost override, else the env default."""
    override = _override.get()
    if override is not None:
        return override
    return backend_from_env()


def is_vector() -> bool:
    """True when a batch (NumPy) backend is selected.

    The parallel backend counts: every phase it does not explicitly
    parallelize runs the vector rendition, so two-way dispatch sites must
    take the vector branch under it.
    """
    return current_backend() != SCALAR


def parallel_status() -> "tuple[bool, Optional[str]]":
    """(usable, reason) for the parallel backend on this host (cached)."""
    from repro.exec.parallel import availability
    return availability()


def require_parallel() -> None:
    """Raise a typed :class:`ConfigError` when parallel cannot run here.

    The ambient fallback in :func:`dispatch` is deliberately graceful
    (warn once, run vector); callers that must not silently degrade —
    CI legs pinned to the parallel backend, for example — call this
    first to fail loudly instead.
    """
    usable, reason = parallel_status()
    if not usable:
        raise ConfigError(
            f"parallel backend unavailable on this host: {reason}; "
            f"set {BACKEND_ENV}=vector (or fix shared memory) and retry",
            backend=PARALLEL, reason=reason,
        )


def _fallback_to_vector(reason: Optional[str]) -> None:
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"parallel backend unavailable ({reason}); falling back to the "
            "vector backend for this process", RuntimeWarning, stacklevel=3)


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Select a backend for the duration of the block (re-entrant)."""
    backend = validate_backend(name)
    token = _override.set(backend)
    try:
        yield backend
    finally:
        _override.reset(token)


def dispatch(scalar_impl: _F, vector_impl: _F,
             parallel_impl: Optional[_F] = None) -> _F:
    """Pick the implementation matching the ambient backend.

    Two-argument call sites cover phases with no dedicated parallel
    rendition: under the parallel backend they receive ``vector_impl``.
    When parallel is selected but unusable on this host (no shared
    memory), the vector implementation is returned after a one-time
    warning — see :func:`require_parallel` for the strict variant.
    """
    backend = current_backend()
    if backend == SCALAR:
        return scalar_impl
    if backend == PARALLEL and parallel_impl is not None:
        usable, reason = parallel_status()
        if usable:
            return parallel_impl
        _fallback_to_vector(reason)
    return vector_impl

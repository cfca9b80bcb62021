"""The persistent worker pool behind the ``parallel`` backend.

One pool per process, sized by ``REPRO_WORKERS`` (default: the machine's
core count).  Workers are long-lived daemon processes pulling (kernel
name, task id, kwargs) tuples off a single shared queue — morsel-driven
scheduling: whichever worker frees up first takes the next morsel, so a
skewed morsel never idles the rest of the pool.  Results return tagged
with their task id, so completion order is irrelevant.

With one worker the pool runs **inline**: morsels execute in-process
through the same kernel registry with no shared memory and no queues.
Single-core machines (and the tiny inputs of the test grid) therefore
pay nothing for selecting the parallel backend.

The pool **self-heals**: a worker that dies (OOM-killed, segfaulted, or
chaos-killed) is detected by the result-drain liveness poll and by
explicit :meth:`WorkerPool.heal` probes, and is respawned up to a
bounded budget (``REPRO_WORKER_RESPAWNS``).  Outstanding morsels of the
interrupted run are re-enqueued exactly once — tasks are tagged with a
per-run generation, so duplicate or stale results are discarded, and
kernels are pure, so a morsel computed twice writes identical bytes.
When the budget is exhausted the pool finishes in-flight morsels inline
and degrades: :func:`morsel_pool` then routes future phases to the
vector path with a one-time warning, mirroring the GPU -> CPU fallback
ladder.

Determinism does not depend on the worker count: morsel decomposition is
fixed by the driver (the same per-thread segments the simulated
:class:`~repro.cpu.threads.ThreadPool` prices), and every merge the
driver performs is order-independent or index-ordered.
"""

from __future__ import annotations

import atexit
import os
import queue as queue_mod
import signal
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ExecutionError
from repro.exec.cancel import checkpoint
from repro.exec.parallel.arena import shared_memory_probe

#: Environment variable fixing the pool size (default: os.cpu_count()).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable for the morsel engagement threshold, in tuples.
MIN_TUPLES_ENV = "REPRO_PARALLEL_MIN_TUPLES"

#: Environment variable bounding worker respawns per pool lifetime.
RESPAWNS_ENV = "REPRO_WORKER_RESPAWNS"

#: Default respawn budget: enough to ride out sporadic kills, small
#: enough that a crash-looping kernel degrades quickly.
DEFAULT_MAX_RESPAWNS = 3

#: Below this many tuples a phase stays on the inline vector path: queue
#: and attach latency would dwarf the compute of a tiny morsel.
DEFAULT_MIN_PARALLEL_TUPLES = 16384

#: Seconds between liveness checks while draining results.
_RESULT_POLL_SECONDS = 1.0

#: Seconds an idle worker waits for a morsel before checking that its
#: driver is still alive.
_ORPHAN_POLL_SECONDS = 0.5


def worker_count() -> int:
    """The configured pool size: ``REPRO_WORKERS``, else the core count."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return max(os.cpu_count() or 1, 1)
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}",
            env=WORKERS_ENV, value=raw,
        ) from None
    if n <= 0:
        raise ConfigError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}",
            env=WORKERS_ENV, value=raw,
        )
    return n


def respawn_budget() -> int:
    """The respawn budget: ``REPRO_WORKER_RESPAWNS``, else the default."""
    raw = os.environ.get(RESPAWNS_ENV, "").strip()
    if not raw:
        return DEFAULT_MAX_RESPAWNS
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"{RESPAWNS_ENV} must be a non-negative integer, got {raw!r}",
            env=RESPAWNS_ENV, value=raw,
        ) from None
    if n < 0:
        raise ConfigError(
            f"{RESPAWNS_ENV} must be a non-negative integer, got {raw!r}",
            env=RESPAWNS_ENV, value=raw,
        )
    return n


def min_parallel_tuples() -> int:
    """The engagement threshold: phases below it stay on the vector path."""
    raw = os.environ.get(MIN_TUPLES_ENV, "").strip()
    if not raw:
        return DEFAULT_MIN_PARALLEL_TUPLES
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(
            f"{MIN_TUPLES_ENV} must be a non-negative integer, got {raw!r}",
            env=MIN_TUPLES_ENV, value=raw,
        ) from None
    if n < 0:
        raise ConfigError(
            f"{MIN_TUPLES_ENV} must be a non-negative integer, got {raw!r}",
            env=MIN_TUPLES_ENV, value=raw,
        )
    return n


def _worker_main(tasks, results,
                 driver: int) -> None:  # pragma: no cover - subprocess
    """Worker loop: pull morsels until the None sentinel arrives.

    A kernel failure is reported as a *sentinel result* — ``(generation,
    task_id, False, message)`` — so the driver distinguishes "the kernel
    raised" (worker still alive, typed error) from "the worker died"
    (no result at all, detected by the liveness poll).

    A ``driver`` (pid) that dies without sending sentinels (SIGKILL, OOM
    kill) leaves the worker reparented: it notices within one poll and
    exits, rather than blocking forever and holding the driver's pipes
    open.
    """
    from repro.exec.parallel.kernels import run_kernel
    while True:
        try:
            item = tasks.get(timeout=_ORPHAN_POLL_SECONDS)
        except queue_mod.Empty:
            if os.getppid() != driver:
                results.cancel_join_thread()  # nobody will read them
                return
            continue
        if item is None:
            return
        generation, kernel, task_id, kwargs = item
        try:
            results.put((generation, task_id, True,
                         run_kernel(kernel, kwargs)))
        except BaseException as exc:
            results.put((generation, task_id, False,
                         f"{type(exc).__name__}: {exc}"))


class WorkerPool:
    """A fixed set of worker processes fed from one morsel queue."""

    def __init__(self, n_workers: int,
                 max_respawns: Optional[int] = None):
        if n_workers <= 0:
            raise ConfigError(
                f"worker count must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self.max_respawns = (respawn_budget() if max_respawns is None
                             else int(max_respawns))
        self.respawns = 0
        #: True once workers died beyond the respawn budget; the pool
        #: tears its processes down (their queues may be poisoned) and
        #: :func:`morsel_pool` stops engaging it (vector degradation,
        #: warn-once).
        self.exhausted = False
        #: Seconds between liveness polls while draining results (tests
        #: shrink this so healing paths run fast).
        self.poll_seconds = _RESULT_POLL_SECONDS
        self._generation = 0
        self._procs: List = []
        self._ctx = None
        self._tasks = None
        self._results = None
        if self.n_workers > 1:
            import multiprocessing as mp
            # fork shares the (copy-on-write) interpreter state; spawn is
            # the portable fallback where fork is unavailable.
            method = ("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn")
            self._ctx = mp.get_context(method)
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
            for _ in range(self.n_workers):
                self._procs.append(self._spawn_worker())

    def _spawn_worker(self):
        proc = self._ctx.Process(target=_worker_main,
                                 args=(self._tasks, self._results,
                                       os.getpid()),
                                 daemon=True)
        proc.start()
        return proc

    @property
    def uses_processes(self) -> bool:
        """False for the inline single-worker pool."""
        return bool(self._procs)

    def alive_workers(self) -> int:
        """Worker processes currently alive (inline pools count as 1)."""
        if not self.uses_processes:
            return 0 if self.exhausted else 1
        return sum(1 for p in self._procs if p.is_alive())

    def liveness(self) -> Dict[str, object]:
        """Per-pool health snapshot (the serve ``health`` verb's source)."""
        return {
            "workers": self.n_workers,
            "alive": self.alive_workers(),
            "processes": self.uses_processes,
            "respawns": self.respawns,
            "max_respawns": self.max_respawns,
            "exhausted": self.exhausted,
        }

    def heal(self) -> int:
        """Liveness probe: detect dead workers and rebuild within budget.

        Returns the number of dead workers healed.  Called by the result
        drain when it notices silence, and by the serve health probe, so
        a chaos-killed worker is replaced before the next phase needs it.

        Healing is a full rebuild — fresh queues, fresh complement — not
        a per-slot respawn: a SIGKILLed worker can die *while holding the
        shared task/result queue's reader lock*, which poisons the queue
        for every survivor and any respawn attached to it.  Survivors
        are migrated to the new queues (terminated and respawned; only
        the deaths are charged to the budget).  When the budget cannot
        cover the deaths the pool tears its processes down and marks
        itself :attr:`exhausted` instead of raising — degradation is the
        backend gate's job, and in-flight morsels finish inline.
        """
        if not self.uses_processes:
            return 0
        dead = sum(1 for p in self._procs if not p.is_alive())
        if not dead:
            return 0
        for proc in self._procs:
            if not proc.is_alive():
                proc.join(timeout=0)  # reap the zombie
        if self.respawns + dead > self.max_respawns:
            self.exhausted = True
            self._teardown_processes()
            return 0
        self.respawns += dead
        self._teardown_processes()
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._procs = [self._spawn_worker()
                       for _ in range(self.n_workers)]
        return dead

    def _teardown_processes(self) -> None:
        """Stop every worker process and discard the (possibly poisoned)
        queues; keeps the context so :meth:`heal` can rebuild."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - unkillable via TERM
                proc.kill()
                proc.join(timeout=1.0)
        for q in (self._tasks, self._results):
            if q is None:
                continue
            try:
                q.close()
                q.cancel_join_thread()  # unsent items may be stranded
            except Exception:  # pragma: no cover
                pass
        self._procs = []
        self._tasks = None
        self._results = None

    def kill_worker(self, index: int = 0) -> Optional[int]:
        """SIGKILL one worker (chaos harness / tests); returns its pid."""
        if not self.uses_processes or index >= len(self._procs):
            return None
        proc = self._procs[index]
        if proc.pid is None or not proc.is_alive():
            return None
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=5.0)
        return proc.pid

    def run(self, kernel: str, task_specs: Sequence[Dict]) -> List:
        """Execute one kernel over all morsels; results in task order.

        Inline pools call the kernel directly; process pools enqueue
        every morsel at once and drain tagged results.  A worker that
        *reports* a failure raises a typed :class:`ExecutionError`; a
        worker that *dies* triggers healing — respawn within budget,
        outstanding morsels re-enqueued exactly once — and only an
        unservable remainder falls back to inline completion.
        """
        from repro.exec.parallel.kernels import run_kernel
        if not self.uses_processes:
            return [run_kernel(kernel, spec) for spec in task_specs]
        self._generation += 1
        generation = self._generation
        self._drain_stale_results()
        pending: Dict[int, Dict] = dict(enumerate(task_specs))
        out: List = [None] * len(task_specs)
        for task_id, spec in pending.items():
            self._tasks.put((generation, kernel, task_id, spec))
        while pending:
            checkpoint(kernel=kernel, pending=len(pending))
            try:
                item = self._results.get(timeout=self.poll_seconds)
            except queue_mod.Empty:
                self._recover_lost(kernel, generation, pending, out)
                continue
            r_generation, task_id, ok, payload = item
            if r_generation != generation or task_id not in pending:
                continue  # stale generation or duplicate re-enqueue
            if not ok:
                raise ExecutionError(
                    f"parallel worker failed in kernel {kernel!r}: {payload}",
                    kernel=kernel, task_id=task_id, detail=str(payload),
                )
            out[task_id] = payload
            del pending[task_id]
        return out

    def _drain_stale_results(self) -> None:
        """Discard results a dead-and-healed previous run left behind."""
        while True:
            try:
                self._results.get_nowait()
            except queue_mod.Empty:
                return

    def _recover_lost(self, kernel: str, generation: int,
                      pending: Dict[int, Dict], out: List) -> None:
        """The drain went silent: check liveness, heal, re-enqueue.

        A dead worker takes whatever morsels it (and the discarded task
        queue) held with it; healing rebuilds the queues, so every
        still-pending morsel goes on the fresh queue exactly once.
        Results from before the rebuild are gone with the old queue and
        stale generations are discarded, so no morsel is double-counted
        — and kernels are pure, so a recomputed morsel writes identical
        bytes.
        """
        dead = [p.pid for p in self._procs if not p.is_alive()]
        if not dead:
            return  # just slow; keep waiting
        self.heal()
        if self.alive_workers() > 0:
            for task_id in sorted(pending):
                self._tasks.put((generation, kernel, task_id,
                                 pending[task_id]))
            return
        # Every worker is gone and the budget is spent: finish the
        # remaining morsels inline (same pure kernels, same bytes) so
        # the caller still gets its answer, then stay degraded.
        from repro.exec.parallel.kernels import run_kernel
        self.exhausted = True
        for task_id in sorted(pending):
            out[task_id] = run_kernel(kernel, pending[task_id])
        pending.clear()

    def shutdown(self) -> None:
        """Stop every worker and release the queues (idempotent).

        Escalates: sentinel -> join(2s) -> terminate -> join(1s) ->
        kill -> join.  The final ``kill()`` is what guarantees repeated
        pool cycling (tests, ``REPRO_WORKERS`` changes) cannot leak
        processes or their queue semaphores.

        Safe on a pool that never started: a partially-constructed
        instance (``__init__`` raised, or a test built one via
        ``__new__``) has no processes and possibly no attributes at all,
        and a second call after a completed shutdown finds everything
        already cleared — both are no-ops, never ``AttributeError``.
        """
        procs = getattr(self, "_procs", None) or []
        tasks = getattr(self, "_tasks", None)
        results = getattr(self, "_results", None)
        if procs and tasks is not None:
            for _ in procs:
                try:
                    tasks.put(None)
                except Exception:  # pragma: no cover - queue torn down
                    break
        for proc in procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - unkillable via TERM
                proc.kill()
                proc.join(timeout=1.0)
        if procs and results is not None:
            self._drain_stale_results()
        for q in (tasks, results):
            if q is None:
                continue
            try:
                q.close()
                q.join_thread()
            except Exception:  # pragma: no cover
                pass
        self._procs = []
        self._ctx = None
        self._tasks = None
        self._results = None


_pool: Optional[WorkerPool] = None
_atexit_registered = False
_availability: Optional[Tuple[bool, Optional[str]]] = None


def availability() -> Tuple[bool, Optional[str]]:
    """(usable, reason): whether the parallel backend can run here.

    The probe creates and unlinks one tiny shared-memory segment; the
    result is cached for the process.  A False verdict makes the backend
    layer fall back to ``vector`` with a warning (or raise a typed
    :class:`~repro.errors.ConfigError` via ``require_parallel``).
    """
    global _availability
    if _availability is None:
        reason = shared_memory_probe()
        _availability = (reason is None, reason)
    return _availability


def reset_availability_cache() -> None:
    """Forget the cached probe (tests monkeypatching the environment)."""
    global _availability
    _availability = None


def get_pool() -> WorkerPool:
    """The process-wide pool, (re)built when ``REPRO_WORKERS`` changes."""
    global _pool, _atexit_registered
    n = worker_count()
    if _pool is None or _pool.n_workers != n:
        if _pool is not None:
            _pool.shutdown()
        _pool = WorkerPool(n)
        if not _atexit_registered:
            atexit.register(shutdown_pool)
            _atexit_registered = True
    return _pool


def current_pool() -> Optional[WorkerPool]:
    """The live pool if one exists — never creates one (health probes)."""
    return _pool


def current_liveness(heal: bool = False) -> Optional[Dict[str, object]]:
    """Liveness of the existing pool, or None when no pool was built.

    ``heal=True`` lets the probe double as the self-healing trigger: the
    serve ``health`` verb respawns chaos-killed workers (within budget)
    as a side effect of looking at them.
    """
    if _pool is None:
        return None
    if heal:
        _pool.heal()
    return _pool.liveness()


def shutdown_pool() -> None:
    """Tear down the process-wide pool (tests and interpreter exit)."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None

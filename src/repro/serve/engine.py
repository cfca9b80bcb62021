"""The join-service engine: versioned relations, cached builds, probes.

:class:`ServeEngine` is the server's brain, independent of any socket:
it owns the versioned relation registry, the LRU
:class:`~repro.serve.cache.BuildCache` of built hash tables, and the
:class:`~repro.serve.admission.AdmissionController`.  One
:meth:`ServeEngine.probe` call is one request:

1. admission — morsel budget checked, an execution slot acquired;
2. build side — ``(relation_id, version)`` resolved and fetched from the
   cache; a cold key builds the chained table exactly once (single
   flight), under a ``build`` span with capacity-overflow recovery;
3. probe — the probe side streams through the cached table in morsels,
   each a recovery-wrapped task emitting one order-independent
   ``(count, checksum)`` chunk, awaiting between morsels so concurrent
   requests interleave;
4. answer — chunks combine into a :class:`~repro.exec.result.JoinResult`
   whose summary is bit-identical to a one-shot pipeline run on the same
   relations (checked continuously by ``repro diff --served``).

Warm requests skip step 2 entirely: no ``build`` span appears in the
trace and the ``serve.cache_hit`` metric is 1 — the observable contract
the serve-smoke CI job asserts.  Faults injected (or organic) during
build or probe go through the standard recovery engine; exhausted
budgets surface as typed errors, never as crashes.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import next_pow2
from repro.cpu.segments import split_segments
from repro.cpu.threads import ThreadPool
from repro.data.relation import Relation
from repro.errors import (
    CircuitOpen,
    DeadlineExceeded,
    RequestCancelled,
    ServeError,
)
from repro.exec.backend import current_backend, is_vector
from repro.exec.cancel import CancelToken, Deadline, cancel_scope, checkpoint
from repro.exec.cost_model import CPUCostModel, DEFAULT_CPU_COST_MODEL
from repro.exec.counters import OpCounters
from repro.exec.matching import KeyGroupIndex
from repro.exec.output import DEFAULT_CAPACITY, JoinOutputBuffer, OutputSummary
from repro.exec.result import JoinResult
from repro.faults.plan import SLOW, FaultPlan
from repro.faults.recovery import run_task_with_recovery
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import current_fault_scope, fault_scope
from repro.obs.trace import Tracer, activate
from repro.serve.admission import AdmissionController
from repro.serve.cache import (
    BuildCache,
    CachedBuild,
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_CIRCUIT_RESET_SECONDS,
    DEFAULT_CIRCUIT_THRESHOLD,
)

#: The engine's pseudo-algorithm name on results and fault reports.
SERVE_ALGORITHM = "serve"

#: Signature of the streaming callback: one chunk dict per probe morsel.
ChunkEmitter = Callable[[Dict], Awaitable[None]]


def _split_counters(total: OpCounters, n: int,
                    n_threads: int) -> List[OpCounters]:
    """Distribute uniform per-tuple counters across thread segments
    (cbase-npj's static build split)."""
    if n == 0:
        return [OpCounters() for _ in range(n_threads)]
    per_thread = []
    for a, b in split_segments(n, n_threads):
        frac = (b - a) / n
        per_thread.append(OpCounters(
            **{k: int(round(v * frac)) for k, v in total.as_dict().items()}))
    return per_thread


@dataclass
class ProbeRequest:
    """One resolved probe request (the protocol layer builds these)."""

    relation_id: str
    probe: Relation
    version: Optional[int] = None
    morsel_tuples: Optional[int] = None
    trace_id: str = ""
    faults: Optional[FaultPlan] = None
    #: Wall-clock budget for the whole request (build + probe), in
    #: milliseconds.  None = no deadline.  Expiry surfaces as a typed
    #: :class:`~repro.errors.DeadlineExceeded` carrying partial progress.
    deadline_ms: Optional[float] = None
    #: Cooperative cancellation handle; the server cancels it on client
    #: disconnect and during forced drain.
    cancel: Optional[CancelToken] = None


@dataclass
class ProbeOutcome:
    """One served answer: the result record plus its streamed chunks."""

    result: JoinResult
    chunks: List[Dict] = field(default_factory=list)

    @property
    def cache_hit(self) -> bool:
        return bool(self.result.meta.get("cache_hit"))

    @property
    def summary(self) -> OutputSummary:
        return OutputSummary(self.result.output_count,
                             self.result.output_checksum)


class ServeEngine:
    """Versioned relations + hot build cache + admission + probes."""

    def __init__(
        self,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        admission: Optional[AdmissionController] = None,
        cost_model: CPUCostModel = DEFAULT_CPU_COST_MODEL,
        output_capacity: int = DEFAULT_CAPACITY,
        n_threads: int = 20,
        circuit_threshold: int = DEFAULT_CIRCUIT_THRESHOLD,
        circuit_reset_seconds: float = DEFAULT_CIRCUIT_RESET_SECONDS,
    ):
        self.cache = BuildCache(
            max_entries=cache_entries,
            circuit_threshold=circuit_threshold,
            circuit_reset_seconds=circuit_reset_seconds)
        self.admission = admission or AdmissionController()
        self.cost_model = cost_model
        self.output_capacity = output_capacity
        # Phases are priced like the pipelines': the paper's 20 simulated
        # workers, builds statically split and probe morsels greedily
        # scheduled — so served simulated seconds compare directly with
        # one-shot cbase-npj runs.
        self.pool = ThreadPool(n_threads, cost_model)
        #: Latest version's data per relation id (older versions are gone).
        self._relations: Dict[str, Relation] = {}
        self._latest: Dict[str, int] = {}
        self._trace_seq = itertools.count(1)
        self.requests = 0
        self.completed = 0
        self.failed = 0
        # Failure taxonomy: every failed request lands in exactly one of
        # these (or stays an unclassified `failed`).
        self.deadline_exceeded = 0
        self.cancelled = 0
        self.circuit_shed = 0

    # ------------------------------------------------------------------
    # relation registry

    def register(self, relation_id: str, relation: Relation) -> int:
        """Install (or bump) a build-side relation; returns its version.

        Re-registering an id bumps the version and replaces the data:
        only the latest version is kept, and the stale version's cached
        build is invalidated, so a probe pinning the old version gets a
        typed :class:`ServeError` naming the latest one.
        """
        if not relation_id:
            raise ServeError("relation_id must be non-empty")
        version = self._latest.get(relation_id, 0) + 1
        self._relations[relation_id] = relation
        self._latest[relation_id] = version
        if version > 1:
            self.cache.invalidate(relation_id, version - 1)
        return version

    def resolve(self, relation_id: str,
                version: Optional[int] = None) -> Tuple[int, Relation]:
        """The (version, relation) a probe addresses; typed error if gone."""
        relation = self._relations.get(relation_id)
        if relation is None:
            raise ServeError(
                f"unknown relation {relation_id!r}; register it first",
                relation_id=relation_id)
        latest = self._latest[relation_id]
        if version is not None and version != latest:
            raise ServeError(
                f"relation {relation_id!r} has no version {version} "
                f"(latest is {latest})",
                relation_id=relation_id, version=version, latest=latest)
        return latest, relation

    def invalidate(self, relation_id: str) -> int:
        """Drop a relation and its cached builds."""
        self._relations.pop(relation_id, None)
        self._latest.pop(relation_id, None)
        return self.cache.invalidate(relation_id)

    def relation_ids(self) -> List[str]:
        """Registered relation ids (sorted)."""
        return sorted(self._relations)

    # ------------------------------------------------------------------
    # the request path

    async def probe(self, request: ProbeRequest,
                    emit: Optional[ChunkEmitter] = None) -> ProbeOutcome:
        """Serve one probe request; see the module docstring for stages."""
        self.requests += 1
        trace_id = request.trace_id or f"req-{next(self._trace_seq)}"
        morsel_tuples = self.admission.clamp_morsel_tuples(
            request.morsel_tuples)
        deadline = (Deadline(request.deadline_ms)
                    if request.deadline_ms is not None else None)
        try:
            # Budget and registry checks happen before a slot is taken:
            # refusals must stay cheap when the server is saturated.
            n_morsels = self.admission.morsel_count(
                len(request.probe), morsel_tuples)
            version, build_rel = self.resolve(request.relation_id,
                                              request.version)
            async with self.admission.admit():
                with cancel_scope(deadline=deadline, token=request.cancel):
                    outcome = await self._probe_admitted(
                        request, build_rel, version, morsel_tuples,
                        n_morsels, trace_id, emit)
        except DeadlineExceeded as exc:
            self.failed += 1
            self.deadline_exceeded += 1
            exc.context.setdefault("trace_id", trace_id)
            raise
        except (RequestCancelled, asyncio.CancelledError):
            self.failed += 1
            self.cancelled += 1
            raise
        except CircuitOpen:
            self.failed += 1
            self.circuit_shed += 1
            raise
        except BaseException:
            self.failed += 1
            raise
        self.completed += 1
        return outcome

    async def _probe_admitted(
        self,
        request: ProbeRequest,
        build_rel: Relation,
        version: int,
        morsel_tuples: int,
        n_morsels: int,
        trace_id: str,
        emit: Optional[ChunkEmitter],
    ) -> ProbeOutcome:
        probe_rel = request.probe
        key = (request.relation_id, version)
        tracer = Tracer(SERVE_ALGORITHM, algorithm=SERVE_ALGORITHM,
                        trace_id=trace_id, relation_id=request.relation_id,
                        version=version, n_r=len(build_rel),
                        n_s=len(probe_rel))
        metrics = tracer.metrics
        result = JoinResult(
            algorithm=SERVE_ALGORITHM, n_r=len(build_rel),
            n_s=len(probe_rel), output_count=0, output_checksum=0,
            meta={"backend": current_backend()},
        )
        chunks: List[Dict] = []
        with activate(tracer), \
                fault_scope(SERVE_ALGORITHM, plan=request.faults) as faults:
            hit_counter = metrics.counter("serve.cache_hit")
            miss_counter = metrics.counter("serve.cache_miss")
            checkpoint(stage="admitted", trace_id=trace_id)
            entry, hit, shared = await self.cache.get_or_build(
                key, lambda: self._build_entry(key, build_rel))
            # A deadline that ran out during the build fires here at the
            # latest — single-shot vector builds have no interior
            # checkpoint, so this is what keeps ``deadline_ms=1`` against
            # a large cold build typed on every backend.
            checkpoint(stage="built", trace_id=trace_id,
                       cache_hit=hit, build_shared=shared)
            (hit_counter if hit else miss_counter).inc()
            if shared:
                metrics.counter("serve.build_shared").inc()
            entry.served += 1
            scanned = len(probe_rel) + (0 if hit or shared
                                        else len(build_rel))
            metrics.counter("join.tuples_scanned").inc(scanned)

            with tracer.span("probe", algo=SERVE_ALGORITHM,
                             trace_id=trace_id) as span:
                (summary, total_counters, morsel_counters,
                 morsel_extras) = await self._probe_morsels(
                    entry, probe_rel, morsel_tuples, n_morsels, chunks,
                    emit, trace_id, metrics)
                schedule = self.pool.queue_phase_seconds(
                    morsel_counters, extra_task_seconds=morsel_extras)
                span.finish(
                    simulated_seconds=schedule.makespan,
                    counters=total_counters,
                    task_count=n_morsels,
                    morsel_tuples=float(morsel_tuples),
                )

            result.output_count = summary.count
            result.output_checksum = summary.checksum
            metrics.counter("join.output_tuples").inc(summary.count)
            metrics.gauge("serve.cache_entries").set(len(self.cache))
            result.faults = faults.reports
        result.meta.update({
            "served": True,
            "relation_id": request.relation_id,
            "version": version,
            "cache_hit": hit,
            "build_shared": shared,
            "trace_id": trace_id,
            "morsel_tuples": morsel_tuples,
            "n_chunks": len(chunks),
        })
        result.trace = tracer.record()
        result.phases = result.trace.phases()
        return ProbeOutcome(result=result, chunks=chunks)

    def _build_entry(self, key: Tuple[str, int],
                     relation: Relation) -> CachedBuild:
        """Build the chained table for a cold key, under a ``build`` span.

        Mirrors the no-partition join's global build: capacity-overflow
        faults regrow the table with bounded retries, and wasted
        attempts plus backoff are charged to the span's simulated time.
        Only the request that actually builds gets this span (and pays
        this cost) — warm hits and shared builds never enter here.
        """
        from repro.obs.trace import current_tracer

        scope = current_fault_scope()
        tracer = current_tracer()
        with tracer.span("build", algo=SERVE_ALGORITHM,
                         relation_id=key[0], version=key[1]) as span:

            def run(counters: OpCounters, attempt: int):
                table = ChainedHashTable(
                    next_pow2(max(len(relation), 1)) << min(attempt, 8))
                table.build(relation.keys, relation.payloads,
                            counters=counters, random_access=True)
                return table

            outcome = run_task_with_recovery(
                run, scope, points=("capacity",),
                structure="serve-build-table", relation_id=key[0])
            # Priced exactly like cbase-npj's global build: statically
            # split across the pool, wasted regrow attempts and backoff
            # charged to every thread.
            n_threads = self.pool.n_threads
            overhead = sum(self.cost_model.seconds(w) / n_threads
                           for w in outcome.wasted) + sum(outcome.backoffs)
            per_thread = _split_counters(outcome.counters, len(relation),
                                         n_threads)
            build_seconds = self.pool.static_phase_seconds(
                per_thread, extra_seconds=[overhead] * len(per_thread))
            span.finish(simulated_seconds=build_seconds,
                        counters=outcome.counters,
                        n_buckets=float(outcome.value.n_buckets))
        return CachedBuild(
            table=outcome.value, relation_id=key[0], version=key[1],
            n_entries=len(relation), build_seconds=build_seconds)

    async def _probe_morsels(
        self,
        entry: CachedBuild,
        probe_rel: Relation,
        morsel_tuples: int,
        n_morsels: int,
        chunks: List[Dict],
        emit: Optional[ChunkEmitter],
        trace_id: str,
        metrics,
    ) -> Tuple[OutputSummary, OpCounters, List[OpCounters], List[float]]:
        """Stream the probe side through the cached table, one morsel at
        a time, yielding to the event loop between morsels."""
        from repro.exec.cancel import current_cancel_scope

        scope = current_fault_scope()
        cancel = current_cancel_scope()
        table = entry.table
        summary = OutputSummary()
        total_counters = OpCounters()
        morsel_counters: List[OpCounters] = []
        morsel_extras: List[float] = []
        n = len(probe_rel)
        # One key-group index of the build side per request, built by the
        # first morsel's task and shared by the rest.  It is not cached
        # with the table: see docs/serving.md.
        key_index: Optional[KeyGroupIndex] = None
        try:
            for index in range(n_morsels):
                a = index * morsel_tuples
                b = min(a + morsel_tuples, n)
                # Seeded slow-morsel delay: charged against the deadline
                # and priced into the schedule, never slept — determinism
                # is the whole point of the ``slow`` kind.
                slow_seconds = 0.0
                spec = scope.fire("slow", morsel=index)
                if spec is not None and spec.kind == SLOW:
                    slow_seconds = spec.seconds
                    if cancel is not None and cancel.deadline is not None:
                        cancel.deadline.charge(slow_seconds)
                    scope.record(FailureReport(
                        kind=SLOW, point="slow", algorithm=SERVE_ALGORITHM,
                        phase=current_phase_name(), action="delay",
                        recovered=True, injected=True,
                        backoff_seconds=slow_seconds,
                        context={"morsel": index}))
                    metrics.counter("serve.slow_morsels").inc()
                checkpoint(morsel=index, n_morsels=n_morsels)

                def run(counters: OpCounters, attempt: int, a=a, b=b):
                    nonlocal key_index
                    if key_index is None and is_vector():
                        key_index = KeyGroupIndex(table.keys, table.payloads)
                    buf = JoinOutputBuffer(self.output_capacity)
                    summary = table.probe(
                        probe_rel.keys[a:b], probe_rel.payloads[a:b], buf,
                        counters=counters, random_access=True,
                        index=key_index)
                    if b == n:
                        # The index is the request's largest allocation:
                        # free it inside the last task, so the cost is
                        # timed with the task, not the request teardown.
                        key_index = None
                    return summary

                outcome = run_task_with_recovery(
                    run, scope, points=("task",), morsel=index)
                morsel_counters.append(outcome.counters)
                morsel_extras.append(
                    sum(self.cost_model.seconds(w) for w in outcome.wasted)
                    + sum(outcome.backoffs) + slow_seconds)
                total_counters += outcome.counters
                chunk_summary: OutputSummary = outcome.value
                summary.add_pairs_sum(chunk_summary.count,
                                      chunk_summary.checksum)
                metrics.counter("serve.probe_morsels").inc()
                chunk = {
                    "index": index,
                    "tuples": b - a,
                    "count": chunk_summary.count,
                    "checksum": chunk_summary.checksum,
                    "trace_id": trace_id,
                }
                chunks.append(chunk)
                if emit is not None:
                    await emit(dict(chunk))
                # One yield between morsels: concurrent requests
                # interleave and streamed chunks reach clients
                # incrementally.  After the last one the request is done.
                if b < n:
                    await asyncio.sleep(0)
        except (DeadlineExceeded, RequestCancelled) as exc:
            # Partial-progress counters: how far the request got before
            # the budget died (chunks already streamed stay valid).
            exc.context.setdefault("morsels_completed", len(morsel_counters))
            exc.context.setdefault("n_morsels", n_morsels)
            exc.context.setdefault("partial_count", summary.count)
            exc.context.setdefault("partial_checksum", summary.checksum)
            raise
        return summary, total_counters, morsel_counters, morsel_extras

    def probe_sync(self, request: ProbeRequest) -> ProbeOutcome:
        """Blocking wrapper for non-async callers (diff leg, tests)."""
        return asyncio.run(self.probe(request))

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Lifetime engine statistics (the ``stats`` op's payload)."""
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "deadline_exceeded": self.deadline_exceeded,
            "cancelled": self.cancelled,
            "circuit_shed": self.circuit_shed,
            "relations": {
                rid: self._latest[rid] for rid in sorted(self._latest)
            },
            "cache": self.cache.info(),
            "admission": self.admission.info(),
        }

    def health(self) -> Dict[str, object]:
        """Liveness snapshot (the ``health`` op's payload).

        Flat ``serve.health.*`` metrics plus a per-circuit detail map.
        The worker-liveness probe is *active*: it reaps and respawns dead
        workers (within budget) before reporting, so a health check is
        itself a self-healing event — the chaos harness leans on this to
        assert "all workers live" after a kill sweep.
        """
        from repro.exec.parallel.pool import current_liveness

        cache_info = self.cache.info()
        admission_info = self.admission.info()
        liveness = current_liveness(heal=True) or {
            "workers": 0, "alive": 0, "processes": False,
            "respawns": 0, "max_respawns": 0, "exhausted": False,
        }
        circuits = self.cache.circuits()
        ok = ((liveness["alive"] >= liveness["workers"]
               or not liveness["processes"])
              and not liveness["exhausted"]
              and not cache_info["open_circuits"])
        metrics = {
            "serve.health.cache_entries": cache_info["entries"],
            "serve.health.cache_max_entries": cache_info["max_entries"],
            "serve.health.open_circuits": cache_info["open_circuits"],
            "serve.health.circuit_shed": cache_info["circuit_shed"],
            "serve.health.inflight": admission_info["inflight"],
            "serve.health.queued": admission_info["queued"],
            "serve.health.workers": liveness["workers"],
            "serve.health.workers_alive": liveness["alive"],
            "serve.health.worker_respawns": liveness["respawns"],
            "serve.health.pool_exhausted": int(liveness["exhausted"]),
            "serve.health.requests": self.requests,
            "serve.health.completed": self.completed,
            "serve.health.failed": self.failed,
            "serve.health.deadline_exceeded": self.deadline_exceeded,
            "serve.health.cancelled": self.cancelled,
        }
        return {
            "ok": bool(ok),
            "metrics": metrics,
            "circuits": circuits,
            "workers": liveness,
        }

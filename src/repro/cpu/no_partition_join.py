"""cbase-npj: the no-partition hash join baseline.

The paper also compares against "a no-partition join in the same code
repository" as Cbase.  It builds one global chained hash table over R in
parallel and probes it with S in parallel.  Because the table far exceeds
the CPU caches, every head fetch and chain step is an uncached random
memory access — which is why Figure 4a shows it as the worst performer.

cbase-npj is also the bottom rung of the fault-recovery fallback ladder (a
GPU pipeline that exhausts kernel retries lands here), so its own phases
are instrumented: the global build regrows its table on capacity overflow
and the probe segments retry on injected worker crashes, both with bounded
backoff charged to the phase makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import hash_keys, next_pow2
from repro.cpu.segments import split_segments
from repro.cpu.threads import ThreadPool
from repro.data.relation import JoinInput
from repro.errors import ConfigError
from repro.exec.backend import is_vector
from repro.exec.counters import OpCounters
from repro.exec.cost_model import CPUCostModel, DEFAULT_CPU_COST_MODEL
from repro.exec.matching import KeyGroupIndex
from repro.exec.output import DEFAULT_CAPACITY, JoinOutputBuffer, combine_summaries
from repro.exec.result import JoinResult
from repro.faults.recovery import run_task_with_recovery
from repro.faults.scope import current_fault_scope
from repro.obs.trace import join_run


@dataclass(frozen=True)
class NoPartitionConfig:
    """Tuning knobs for the no-partition join."""

    n_threads: int = 20
    output_capacity: int = DEFAULT_CAPACITY
    cost_model: CPUCostModel = DEFAULT_CPU_COST_MODEL

    def __post_init__(self):
        if self.n_threads <= 0:
            raise ConfigError("n_threads must be positive")


class NoPartitionJoin:
    """cbase-npj: global chained table, parallel build and probe."""

    name = "cbase-npj"

    def __init__(self, config: NoPartitionConfig = NoPartitionConfig()):
        self.config = config
        self.pool = ThreadPool(config.n_threads, config.cost_model)

    def run(self, join_input: JoinInput) -> JoinResult:
        """Execute cbase-npj: global build, then parallel probe."""
        cfg = self.config
        r, s = join_input.r, join_input.s
        with join_run(self.name, join_input) as (result, tracer, _):
            with tracer.span("build", algo=self.name) as span:
                (table, index), build_counters, overhead = self._build(r)
                per_thread = self._split_counters(build_counters, len(r),
                                                  cfg.n_threads)
                span.finish(
                    simulated_seconds=self.pool.static_phase_seconds(
                        per_thread,
                        extra_seconds=[overhead] * len(per_thread)),
                    counters=build_counters,
                )

            with tracer.span("probe", algo=self.name) as span:
                per_thread, extras, summaries, total = self._probe(
                    table, index, s)
                span.finish(
                    simulated_seconds=self.pool.static_phase_seconds(
                        per_thread, extra_seconds=extras),
                    counters=total,
                )

            summary = combine_summaries(summaries)
            result.output_count = summary.count
            result.output_checksum = summary.checksum
        return result

    def _build(self, r):
        """Build the global table, regrowing on capacity overflow.

        Returns ``((table, index), counters, overhead_seconds)`` where the
        overhead is the per-thread cost of wasted build attempts plus
        backoff.  On the batch backends ``index`` is the table's
        :class:`KeyGroupIndex`, built here so its cost lands in the build
        phase and every probe segment shares it; the scalar chain walk
        needs none.
        """
        cfg = self.config
        scope = current_fault_scope()

        def run(counters: OpCounters, attempt: int):
            table = ChainedHashTable(
                next_pow2(max(len(r), 1)) << min(attempt, 8))
            table.build(r.keys, r.payloads, counters=counters,
                        random_access=True)
            index = (KeyGroupIndex(table.keys, table.payloads)
                     if is_vector() else None)
            return table, index

        outcome = run_task_with_recovery(run, scope, points=("capacity",),
                                         structure="global-chained-table")
        overhead = sum(
            cfg.cost_model.seconds(w) / cfg.n_threads for w in outcome.wasted
        ) + sum(outcome.backoffs)
        return outcome.value, outcome.counters, overhead

    @staticmethod
    def _split_counters(total: OpCounters, n: int, n_threads: int):
        """Distribute uniform per-tuple counters across thread segments."""
        if n == 0:
            return [OpCounters() for _ in range(n_threads)]
        per_thread = []
        for a, b in split_segments(n, n_threads):
            frac = (b - a) / n
            per_thread.append(OpCounters(
                **{k: int(round(v * frac)) for k, v in total.as_dict().items()}
            ))
        return per_thread

    def _probe(self, table: ChainedHashTable,
               index: Optional[KeyGroupIndex], s):
        """Probe S in per-thread segments against the global table.

        Each segment is one task for the recovery engine: an injected
        worker crash re-runs the segment, charging the wasted fraction and
        backoff as extra seconds on that segment's thread.

        A lazy (out-of-core) S streams through the same segments: each
        morsel is paged in and hashed on arrival, so residency stays at
        one segment's columns instead of the whole probe side.  Hashing
        is element-wise, which keeps the streamed probe bit-identical —
        counters, summaries, and simulated seconds all match the in-RAM
        run.
        """
        cfg = self.config
        scope = current_fault_scope()
        streaming = getattr(s, "is_lazy", False)
        hashes = None if streaming else hash_keys(s.keys)
        per_thread = []
        extras = []
        summaries = []
        total = OpCounters()
        for t, (a, b) in enumerate(split_segments(len(s), cfg.n_threads)):
            if streaming:
                seg_keys, seg_payloads = s.morsel(a, b)
                seg_hashes = hash_keys(seg_keys)
            else:
                seg_keys, seg_payloads = s.keys[a:b], s.payloads[a:b]
                seg_hashes = hashes[a:b]

            def run(counters: OpCounters, attempt: int, seg_keys=seg_keys,
                    seg_payloads=seg_payloads, seg_hashes=seg_hashes):
                # The probe dispatches on the ambient backend: group-wise
                # matching through the shared index (vector, parallel) or
                # the literal chain walk (scalar).  Counters are identical
                # either way; every access against the global table is
                # random (uncached).
                buf = JoinOutputBuffer(cfg.output_capacity)
                return table.probe(
                    seg_keys, seg_payloads, buf,
                    counters=counters, hashes=seg_hashes,
                    random_access=True, index=index,
                )

            outcome = run_task_with_recovery(run, scope, points=("task",),
                                             segment=t)
            extra = sum(
                cfg.cost_model.seconds(w) for w in outcome.wasted
            ) + sum(outcome.backoffs)
            per_thread.append(outcome.counters)
            extras.append(extra)
            summaries.append(outcome.value)
            total += outcome.counters
        return per_thread, extras, summaries, total

"""The CPU join phase: per-partition-pair chained-hash join tasks.

Both Cbase and CSH's NM-join run this phase: every (R partition, S
partition) pair becomes a task in a queue; a worker pops a task, builds a
chained hash table over the R partition, probes it with the S partition,
and writes matches to its output buffer.  The phase's simulated time is the
greedy task-queue makespan — which is where skewed partitions show up as
one dominating task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import next_pow2
from repro.cpu.partition import PartitionedRelation
from repro.cpu.task_queue import ScheduleResult
from repro.cpu.threads import ThreadPool
from repro.exec.counters import OpCounters
from repro.exec.output import (
    DEFAULT_CAPACITY,
    JoinOutputBuffer,
    OutputSummary,
    combine_summaries,
)
from repro.faults.recovery import run_task_with_recovery
from repro.faults.report import current_phase_name
from repro.faults.scope import current_fault_scope
from repro.store.spill import current_spill_session


@dataclass
class JoinPhaseResult:
    """Outcome of a task-queued join phase."""

    summary: OutputSummary
    schedule: ScheduleResult
    task_counters: List[OpCounters] = field(default_factory=list)
    buffers: List[JoinOutputBuffer] = field(default_factory=list)

    @property
    def counters(self) -> OpCounters:
        """Total operation counters across all join tasks."""
        return OpCounters.sum(self.task_counters)

    @property
    def simulated_seconds(self) -> float:
        """Phase makespan on the simulated workers."""
        return self.schedule.makespan

    @property
    def task_count(self) -> int:
        """Number of join tasks executed."""
        return len(self.task_counters)


def join_partition_pairs(
    part_r: PartitionedRelation,
    part_s: PartitionedRelation,
    pool: ThreadPool,
    pairs: Optional[Sequence[int]] = None,
    output_capacity: int = DEFAULT_CAPACITY,
) -> JoinPhaseResult:
    """Join partition p of R with partition p of S for each selected p.

    ``pairs`` selects partition indices (default: all non-empty pairs).
    Tasks execute functionally in order; the simulated phase time is the
    greedy schedule of the measured per-task costs over the pool's workers,
    and each task's output lands in the buffer of its scheduled worker.

    Every task runs through the fault-recovery engine: injected worker
    crashes and capacity overflows are absorbed before the functional work
    executes (a retried task writes its output exactly once, so tuples are
    never double-counted), organic ``CapacityError`` raises retry with a
    table grown by one doubling per attempt, and every failed attempt plus
    its backoff is charged serially to the retried task's queue slot.
    """
    if part_r.fanout != part_s.fanout:
        raise ValueError(
            f"fanout mismatch: R has {part_r.fanout}, S has {part_s.fanout}"
        )
    if pairs is None:
        r_sizes = part_r.sizes()
        s_sizes = part_s.sizes()
        pairs = np.flatnonzero((r_sizes > 0) & (s_sizes > 0))
    scope = current_fault_scope()
    session = current_spill_session()
    phase_label = current_phase_name()
    buffers = [JoinOutputBuffer(output_capacity) for _ in range(pool.n_threads)]
    task_counters: List[OpCounters] = []
    extra_seconds: List[float] = []
    success_counters: List[OpCounters] = []
    task_summaries: List[OutputSummary] = []
    for i, p in enumerate(pairs):
        if session is not None:
            # Resume path: a pair already in the checkpoint ledger folds
            # its durable (count, checksum) straight into the summary —
            # order independence makes the skip exact in any order.
            done = session.pair_done(phase_label, int(p))
            if done is not None:
                task_summaries.append(done)
                continue
        buffer = buffers[i % len(buffers)]

        def run(counters: OpCounters, attempt: int, p=int(p), buffer=buffer):
            return join_one_pair(part_r, part_s, p, counters, buffer,
                                 growth=attempt)

        outcome = run_task_with_recovery(run, scope, partition=int(p))
        # A retry is serial on the retried task's own timeline: crashed
        # attempts and backoff delays are charged to the same queue slot as
        # the successful execution, never hidden as free parallel work.
        extra = sum(
            pool.cost_model.task_seconds(w) for w in outcome.wasted
        ) + sum(outcome.backoffs)
        task_counters.append(outcome.counters)
        extra_seconds.append(extra)
        success_counters.append(outcome.counters)
        task_summaries.append(outcome.value)
        if session is not None:
            # Fsync'd checkpoint: after this returns, a crash can no
            # longer lose the pair — resume will skip it.
            session.record_pair(phase_label, int(p), outcome.value)
    schedule = pool.queue_phase_seconds(task_counters, extra_seconds)
    summary = combine_summaries(task_summaries)
    return JoinPhaseResult(
        summary=summary,
        schedule=schedule,
        task_counters=success_counters,
        buffers=buffers,
    )


def join_one_pair(
    part_r: PartitionedRelation,
    part_s: PartitionedRelation,
    p: int,
    counters: OpCounters,
    buffer: JoinOutputBuffer,
    growth: int = 0,
) -> OutputSummary:
    """Build-and-probe one partition pair (one join task).

    ``growth`` doubles the hash-table bucket count that many times — the
    capacity-overflow recovery path rebuilds with a bigger table.
    """
    r_keys, r_pays = part_r.partition(p)
    s_keys, s_pays = part_s.partition(p)
    if r_keys.size == 0 or s_keys.size == 0:
        return OutputSummary()
    table = ChainedHashTable(next_pow2(max(r_keys.size, 1)) << min(growth, 8))
    table.build(r_keys, r_pays, hashes=part_r.partition_hashes(p),
                counters=counters)
    return table.probe(
        s_keys, s_pays, buffer, counters=counters,
        hashes=part_s.partition_hashes(p),
    )


"""Gbase's join phase kernels.

One thread block joins a pair of R/S partitions using a chained hash table
in shared memory.  Skew handling (Section II-B): a long R partition is
decomposed into disjoint sub-lists, and one block per sub-list joins it
against the *full* S partition — so S tuples are re-read and re-probed once
per sub-list, and the skew of S itself is not addressed.

Each pair builds one :class:`~repro.cpu.chained_table.ChainedHashTable`
over its R partition and probes it once with S: that probe gives the
pair's output count and checksum and feeds its output ring, and its count
is the output of a single-block pair.  Only a pair split into sub-lists
counts each sub-list's output on its own.

Output coordination uses the write bitmap (Section III): at every chain
step each thread atomically sets its bit, the block synchronizes, and
threads count bits to compute write offsets — so long chains multiply
atomics and barriers.  The block cost model below prices exactly those
terms:

* lockstep probe steps (rounds x per-round longest chain) — divergence;
* one barrier per lockstep step — the write-bitmap synchronization;
* one atomic per useful chain step — the write-intention bit;
* one full read of the S partition per sub-list block;
* output bytes per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import bucket_ids, bits_for, next_pow2
from repro.cpu.partition import PartitionedRelation
from repro.gpu.bucket_chain import (
    DEFAULT_BUCKET_TUPLES,
    BucketChain,
    sublist_ranges,
)
from repro.exec.backend import dispatch
from repro.exec.counters import OpCounters
from repro.exec.matching import match_group_stats
from repro.exec.output import (
    DEFAULT_CAPACITY,
    JoinOutputBuffer,
    OutputSummary,
    combine_summaries,
)
from repro.faults.recovery import consume_injected_faults, scale_counters
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import current_fault_scope
from repro.gpu.kernel import BlockWork
from repro.gpu.simulator import GPUSimulator
from repro.gpu.warp import lockstep_probe_rounds


@dataclass
class GpuJoinPhaseResult:
    """Outcome of a GPU join kernel over partition pairs."""

    summary: OutputSummary
    seconds: float
    counters: OpCounters
    n_blocks: int
    buffers: List[JoinOutputBuffer] = field(default_factory=list)


def _probe_chain_depths_vector(
    r_hashes: np.ndarray, s_hashes: np.ndarray, bucket_bits: int
) -> np.ndarray:
    """Chain length met by each probe tuple, via one histogram + gather."""
    chain_len = np.bincount(bucket_ids(r_hashes, bucket_bits),
                            minlength=1 << bucket_bits)
    return chain_len[bucket_ids(s_hashes, bucket_bits)]


def _probe_chain_depths_scalar(
    r_hashes: np.ndarray, s_hashes: np.ndarray, bucket_bits: int
) -> np.ndarray:
    """Chain length met by each probe tuple, accumulated tuple-at-a-time."""
    chain_len = [0] * (1 << bucket_bits)
    for b in bucket_ids(r_hashes, bucket_bits).tolist():
        chain_len[b] += 1
    per_probe = [chain_len[b]
                 for b in bucket_ids(s_hashes, bucket_bits).tolist()]
    return np.asarray(per_probe, dtype=np.int64)


def probe_block_counters(
    r_hashes: np.ndarray,
    s_hashes: np.ndarray,
    output_tuples: int,
    block_threads: int,
    bucket_bits: int,
) -> OpCounters:
    """Exact block cost of building over R and probing all of S.

    ``output_tuples`` is the block's join output, which the caller has
    already counted (see :func:`gbase_join_phase`); this prices it.
    """
    n_r = int(r_hashes.size)
    n_s = int(s_hashes.size)
    counters = OpCounters(
        hash_ops=n_r + n_s,
        table_inserts=n_r,
        bytes_read=8 * (n_r + n_s),
    )
    if n_r == 0 or n_s == 0:
        return counters
    depth_of = dispatch(_probe_chain_depths_scalar, _probe_chain_depths_vector)
    per_probe = depth_of(r_hashes, s_hashes, bucket_bits)
    rounds = lockstep_probe_rounds(per_probe, block_threads)
    lockstep_steps = rounds.paid_steps // block_threads
    counters.chain_steps += lockstep_steps
    counters.sync_barriers += lockstep_steps  # write-bitmap barrier per step
    counters.atomic_ops += rounds.useful_steps  # write-intention bits
    counters.key_compares += rounds.useful_steps
    counters.divergent_steps += rounds.divergent_steps
    counters.output_tuples += output_tuples
    counters.bytes_written += 8 * output_tuples
    return counters


def gbase_join_phase(
    part_r: PartitionedRelation,
    part_s: PartitionedRelation,
    sim: GPUSimulator,
    sublist_capacity: Optional[int] = None,
    output_capacity: int = DEFAULT_CAPACITY,
    kernel_name: str = "gbase_join",
    pairs: Optional[Sequence[int]] = None,
) -> GpuJoinPhaseResult:
    """Join aligned partition pairs, with sub-list skew decomposition.

    ``sublist_capacity`` bounds the R tuples per block; R partitions above
    it are split into sub-lists, each joined against the full S partition
    by its own block (``None`` disables decomposition — one block per pair,
    which is GSH's NM-join behaviour).

    Each pair probes the fault scope before its blocks are built: a
    ``capacity`` fault re-splits the pair's build side into smaller
    sub-lists (output is unchanged — decomposition only affects cost), and
    a ``task`` fault (worker crash) re-runs the pair's blocks, charging the
    wasted fraction as extra block work plus backoff.
    """
    if part_r.fanout != part_s.fanout:
        raise ValueError("R and S partition fanouts differ")
    if pairs is None:
        r_sizes = part_r.sizes()
        s_sizes = part_s.sizes()
        pairs = np.flatnonzero((r_sizes > 0) & (s_sizes > 0))
    device = sim.device
    scope = current_fault_scope()
    policy = scope.policy
    work: List[BlockWork] = []
    extra_backoff = 0.0
    # Buffers model the per-block output rings; a bounded pool is shared
    # round-robin (count/checksum are unaffected by which ring a pair uses).
    buffers = [
        JoinOutputBuffer(output_capacity)
        for _ in range(max(1, min(len(pairs), 64)))
    ]
    summaries: List[OutputSummary] = []
    table_buckets = next_pow2(max(device.shared_capacity_tuples, 2))
    bucket_bits = bits_for(table_buckets)
    for i, p in enumerate(pairs):
        p = int(p)
        r_keys, r_pays = part_r.partition(p)
        s_keys, s_pays = part_s.partition(p)
        r_hashes = part_r.partition_hashes(p)
        s_hashes = part_s.partition_hashes(p)
        n_r = int(r_keys.size)
        # Capacity fault: the pair's shared-memory table overflowed; re-split
        # the build side into sub-lists at a reduced capacity and go again.
        pair_capacity = sublist_capacity
        cap_episode = consume_injected_faults(scope, ("capacity",),
                                              partition=p)
        if cap_episode.retries:
            base = (pair_capacity if pair_capacity is not None
                    else device.shared_capacity_tuples)
            pair_capacity = max(
                base // (policy.regrow_factor ** cap_episode.retries), 1)
            extra_backoff += cap_episode.backoff_seconds
            scope.record(FailureReport(
                kind=cap_episode.kind, point="capacity",
                algorithm=scope.algorithm, phase=current_phase_name(),
                action="re-split", recovered=True, injected=True,
                retries=cap_episode.retries,
                backoff_seconds=cap_episode.backoff_seconds,
                error=cap_episode.errors[-1],
                context={"partition": p, "sublist_capacity": pair_capacity},
            ))
        if pair_capacity is not None and n_r > pair_capacity:
            # Decompose the partition's bucket chain into sub-lists of
            # whole buckets; each sub-list becomes one block's build side.
            chain = BucketChain(partition=p, buckets=[
                (a, min(a + DEFAULT_BUCKET_TUPLES, n_r))
                for a in range(0, n_r, DEFAULT_BUCKET_TUPLES)
            ])
            ranges = sublist_ranges(chain, pair_capacity)
        else:
            ranges = [(0, n_r)]
        # One table per pair, probed once: the probe's summary is the
        # pair's output, its ring write and a lone block's output count;
        # only sub-lists need their own counts.
        table = ChainedHashTable(table_buckets)
        table.build(r_keys, r_pays, hashes=r_hashes)
        summary = table.probe(s_keys, s_pays, buffers[i % len(buffers)],
                              hashes=s_hashes)
        summaries.append(summary)
        if len(ranges) == 1:
            outputs = [summary.count]
        else:
            outputs = [match_group_stats(r_keys[a:b], r_pays[a:b],
                                         s_keys, s_pays)[0]
                       for a, b in ranges]
        pair_work = [
            BlockWork(1, probe_block_counters(
                r_hashes[a:b], s_hashes, out,
                device.threads_per_block, bucket_bits,
            ))
            for (a, b), out in zip(ranges, outputs)
        ]
        # Worker crash: the blocks of this pair re-execute; each wasted
        # attempt costs a fraction of the pair's block work plus backoff.
        crash_episode = consume_injected_faults(scope, ("task",),
                                                partition=p)
        if crash_episode.retries:
            for _ in range(crash_episode.retries):
                work.extend(
                    BlockWork(w.count,
                              scale_counters(w.counters,
                                             policy.crash_cost_fraction))
                    for w in pair_work
                )
            extra_backoff += crash_episode.backoff_seconds
            scope.record(FailureReport(
                kind=crash_episode.kind, point="task",
                algorithm=scope.algorithm, phase=current_phase_name(),
                action="retry", recovered=True, injected=True,
                retries=crash_episode.retries,
                backoff_seconds=crash_episode.backoff_seconds,
                error=crash_episode.errors[-1],
                context={"partition": p},
            ))
        work.extend(pair_work)
    launch = sim.launch(kernel_name, work)
    return GpuJoinPhaseResult(
        summary=combine_summaries(summaries),
        seconds=launch.seconds + extra_backoff,
        counters=launch.counters,
        n_blocks=launch.n_blocks,
        buffers=buffers,
    )

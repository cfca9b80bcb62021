"""Analytic (histogram-driven) executors for paper-scale experiments.

Every join algorithm in this library decomposes into tasks/blocks whose
operation counts are functions of the per-key frequencies of R and S.  The
executors here recompute those counts — and the schedules that turn them
into simulated seconds — directly from a key histogram, without ever
materializing the tuples.  That is what makes the paper's 32 M-tuple
(Figures 1 and 4, Table I) and 560 M-tuple (Section V-B) configurations
tractable on a laptop-class machine.

Exactness contract (tested in ``tests/analysis/test_analytic.py``):

* CPU pipelines (Cbase, CSH given the detected key set): per-phase counters
  and simulated seconds are *bit-identical* to the executed pipelines on
  the same histogram, because every executed counter is a deterministic
  function of per-(partition, key) frequencies.
* cbase-npj and CSH's S-side thread split: totals are exact; the per-thread
  division depends on the (random) tuple order, so analytic assumes an even
  spread — seconds agree to within a few percent.
* GPU pipelines: partition and skew-join kernels are exact; the NM-join's
  lockstep/divergence terms depend on the tuple order inside partitions,
  so analytic uses the expected-value model (iid probe order), accurate to
  ~tens of percent and unbiased for the useful-work terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.csh.pipeline import CSHConfig
from repro.core.gsh.pipeline import GSHConfig
from repro.cpu.hashing import bits_for, bucket_ids, hash_keys, next_pow2, radix_bits
from repro.cpu.no_partition_join import NoPartitionConfig, NoPartitionJoin
from repro.cpu.partition import _scan_counters
from repro.cpu.radix_join import CbaseConfig
from repro.cpu.segments import split_segments
from repro.cpu.threads import ThreadPool
from repro.data.relation import JoinInput
from repro.data.zipf import ZipfWorkload, zipf_rank_counts_approx
from repro.errors import WorkloadError
from repro.exec.counters import OpCounters
from repro.exec.result import JoinResult, PhaseResult
from repro.gpu.gbase.pipeline import GbaseConfig
from repro.gpu.kernel import BlockWork, uniform_grid
from repro.gpu.partitioning import (
    PARTITION_TUPLES_PER_BLOCK,
    gbase_partition_cost,
    gsh_partition_cost,
)
from repro.gpu.simulator import GPUSimulator, cost_model_for
from repro.types import SeedLike, make_rng


@dataclass
class AnalyticWorkload:
    """Distinct join keys with their R and S frequencies."""

    keys: np.ndarray
    cr: np.ndarray
    cs: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.uint32)
        self.cr = np.asarray(self.cr, dtype=np.int64)
        self.cs = np.asarray(self.cs, dtype=np.int64)
        if not (self.keys.size == self.cr.size == self.cs.size):
            raise WorkloadError("keys/cr/cs must have equal length")
        if np.unique(self.keys).size != self.keys.size:
            raise WorkloadError("keys must be distinct")
        keep = (self.cr > 0) | (self.cs > 0)
        if not np.all(keep):
            self.keys = self.keys[keep]
            self.cr = self.cr[keep]
            self.cs = self.cs[keep]

    @property
    def n_r(self) -> int:
        """Total R tuples."""
        return int(self.cr.sum())

    @property
    def n_s(self) -> int:
        """Total S tuples."""
        return int(self.cs.sum())

    def output_count(self) -> int:
        """Exact equi-join cardinality."""
        return int(np.sum(self.cr.astype(object) * self.cs.astype(object)))

    @staticmethod
    def from_join_input(join_input: JoinInput,
                        label: str = "") -> "AnalyticWorkload":
        """Histogram of a materialized input (for validation tests)."""
        keys = np.union1d(np.unique(join_input.r.keys),
                          np.unique(join_input.s.keys))
        pos_r = np.searchsorted(keys, join_input.r.keys)
        pos_s = np.searchsorted(keys, join_input.s.keys)
        cr = np.bincount(pos_r, minlength=keys.size)
        cs = np.bincount(pos_s, minlength=keys.size)
        return AnalyticWorkload(keys, cr, cs, label=label)

    @staticmethod
    def from_zipf(
        n_r: int,
        n_s: int,
        theta: float,
        n_keys: Optional[int] = None,
        seed: SeedLike = 0,
        max_distinct: int = 1 << 25,
    ) -> "AnalyticWorkload":
        """Zipf workload histogram at any scale.

        Up to ``max_distinct`` candidate keys the histogram is drawn with
        the paper's exact interval-array procedure; above it (the 560 M
        scale-up) the key domain is capped at ``max_distinct`` and counts
        come from the head-exact/tail-expected approximation — skew
        behaviour lives entirely in the head, so the capped domain
        preserves every skew-dependent quantity while fitting in memory.
        """
        if n_keys is None:
            n_keys = max(n_r, n_s, 1)
        if n_keys <= max_distinct:
            wl = ZipfWorkload(n_r, n_s, theta, n_keys=n_keys, seed=seed)
            cr = wl.sample_rank_counts(n_r)
            cs = wl.sample_rank_counts(n_s)
            keys = wl._key_of_rank
        else:
            rng = make_rng(seed)
            cr = zipf_rank_counts_approx(n_r, max_distinct, theta,
                                         seed=rng, exact_head=1 << 20)
            cs = zipf_rank_counts_approx(n_s, max_distinct, theta,
                                         seed=rng, exact_head=1 << 20)
            keys = rng.permutation(max_distinct).astype(np.uint32)
        return AnalyticWorkload(keys, cr, cs,
                                label=f"zipf(theta={theta}, n={n_r})")


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


@dataclass
class _Partitioned:
    """Per-partition grouping of the workload's distinct keys."""

    order: np.ndarray     # key indices sorted by partition id
    offsets: np.ndarray   # fanout + 1 boundaries into `order`
    r_sizes: np.ndarray   # tuples per partition, R side
    s_sizes: np.ndarray   # tuples per partition, S side

    @property
    def fanout(self) -> int:
        """Number of partitions."""
        return int(self.offsets.size - 1)

    def key_slice(self, p: int) -> np.ndarray:
        """Key indices belonging to partition ``p``."""
        return self.order[self.offsets[p]:self.offsets[p + 1]]


def _group_by_partition(pid: np.ndarray, fanout: int, cr: np.ndarray,
                        cs: np.ndarray) -> _Partitioned:
    order = np.argsort(pid, kind="stable")
    counts = np.bincount(pid, minlength=fanout)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    r_sizes = np.bincount(pid, weights=cr, minlength=fanout).astype(np.int64)
    s_sizes = np.bincount(pid, weights=cs, minlength=fanout).astype(np.int64)
    return _Partitioned(order=order, offsets=offsets,
                        r_sizes=r_sizes, s_sizes=s_sizes)


def _static_pass_counters(n: int, n_threads: int) -> List[OpCounters]:
    return [_scan_counters(b - a) for a, b in split_segments(n, n_threads)]


def _probe_totals(hashes: np.ndarray, crp: np.ndarray, csp: np.ndarray,
                  bucket_bits: int) -> Tuple[int, int]:
    """(chain steps, output tuples) of probing S against R's chained table."""
    if crp.size == 0:
        return 0, 0
    b = bucket_ids(hashes, bucket_bits)
    blen = np.bincount(b, weights=crp.astype(np.float64),
                       minlength=1 << bucket_bits)
    steps = int(round(float(np.sum(csp * blen[b]))))
    outputs = int(np.sum(crp * csp))
    return steps, outputs


def _cbase_join_task(hashes, crp, csp) -> OpCounters:
    """Counters of one CPU join task, identical to join_one_pair."""
    n_r = int(crp.sum())
    n_s = int(csp.sum())
    counters = OpCounters()
    if n_r == 0 or n_s == 0:
        return counters
    bucket_bits = bits_for(next_pow2(max(n_r, 1)))
    counters.hash_ops += n_r
    counters.table_inserts += n_r
    counters.bytes_read += 8 * n_r
    counters.bytes_written += 12 * n_r
    steps, outputs = _probe_totals(hashes, crp, csp, bucket_bits)
    counters.hash_ops += n_s
    counters.seq_tuple_reads += n_s
    counters.bytes_read += 8 * n_s
    counters.chain_steps += steps
    counters.key_compares += steps
    counters.output_tuples += outputs
    counters.bytes_written += 8 * outputs
    return counters


def _analytic_result(algorithm: str, wl: AnalyticWorkload,
                     phases: List[PhaseResult],
                     output_count: int, **meta) -> JoinResult:
    result = JoinResult(
        algorithm=algorithm, n_r=wl.n_r, n_s=wl.n_s,
        output_count=output_count, output_checksum=0,
        phases=phases,
        meta={"analytic": True, **meta},
    )
    return result


# ---------------------------------------------------------------------------
# Cbase
# ---------------------------------------------------------------------------


def analytic_cbase(wl: AnalyticWorkload,
                   config: CbaseConfig = CbaseConfig()) -> JoinResult:
    """Paper-scale Cbase: exact counters and schedule from the histogram."""
    pool = ThreadPool(config.n_threads, config.cost_model)
    bits1, bits2 = config.resolve_bits(max(wl.n_r, wl.n_s))
    hashes = hash_keys(wl.keys)
    p1 = radix_bits(hashes, 0, bits1)
    pid = (p1 << bits2) | radix_bits(hashes, bits1, bits2)
    fanout = 1 << (bits1 + bits2)

    seconds = 0.0
    counters = OpCounters()
    details: Dict[str, float] = {}
    for n, weights in ((wl.n_r, wl.cr), (wl.n_s, wl.cs)):
        per_thread = _static_pass_counters(n, config.n_threads)
        seconds += pool.static_phase_seconds(per_thread)
        counters += OpCounters.sum(per_thread)
        if bits2 > 0:
            sizes1 = np.bincount(p1, weights=weights.astype(float),
                                 minlength=1 << bits1).astype(np.int64)
            tasks = [_scan_counters(int(m)) for m in sizes1]
            seconds += pool.queue_phase_seconds(tasks).makespan
            counters += OpCounters.sum(tasks)

    grouped = _group_by_partition(pid, fanout, wl.cr, wl.cs)
    # Oversized-partition splitting (decided on final R sizes).
    if config.split_bits > 0:
        avg = max(wl.n_r / max(fanout, 1), 1.0)
        split_mask = grouped.r_sizes > config.split_factor * avg
        if np.any(split_mask):
            sub = radix_bits(hashes, bits1 + bits2, config.split_bits)
            pid = np.where(split_mask[pid],
                           pid * (1 << config.split_bits) + sub,
                           pid * (1 << config.split_bits))
            for sizes in (grouped.r_sizes, grouped.s_sizes):
                tasks = [_scan_counters(int(sizes[p]))
                         for p in np.flatnonzero(split_mask)]
                seconds += pool.queue_phase_seconds(tasks).makespan
                counters += OpCounters.sum(tasks)
            fanout <<= config.split_bits
            grouped = _group_by_partition(pid, fanout, wl.cr, wl.cs)
            details["split_partitions"] = float(split_mask.sum())

    partition = PhaseResult("partition", seconds, counters, details=details)

    pairs = np.flatnonzero((grouped.r_sizes > 0) & (grouped.s_sizes > 0))
    task_counters = []
    for p in pairs:
        idx = grouped.key_slice(int(p))
        task_counters.append(
            _cbase_join_task(hashes[idx], wl.cr[idx], wl.cs[idx]))
    schedule = pool.queue_phase_seconds(task_counters)
    join = PhaseResult(
        "join", schedule.makespan, OpCounters.sum(task_counters),
        task_count=len(task_counters),
        details={"idle_fraction": schedule.idle_fraction},
    )
    return _analytic_result("cbase", wl, [partition, join], wl.output_count(),
                            bits_pass1=bits1, bits_pass2=bits2)


# ---------------------------------------------------------------------------
# cbase-npj
# ---------------------------------------------------------------------------


def analytic_npj(wl: AnalyticWorkload,
                 config: NoPartitionConfig = NoPartitionConfig()) -> JoinResult:
    """Paper-scale cbase-npj (per-thread split is the even-spread model)."""
    pool = ThreadPool(config.n_threads, config.cost_model)
    n_r, n_s = wl.n_r, wl.n_s
    build = OpCounters(
        hash_ops=n_r, table_inserts=n_r, random_accesses=n_r,
        bytes_read=8 * n_r, bytes_written=12 * n_r,
    )
    per_thread = NoPartitionJoin._split_counters(build, n_r, config.n_threads)
    build_phase = PhaseResult("build", pool.static_phase_seconds(per_thread),
                              build)

    hashes = hash_keys(wl.keys)
    bucket_bits = bits_for(next_pow2(max(n_r, 1)))
    steps, outputs = _probe_totals(hashes, wl.cr, wl.cs, bucket_bits)
    probe = OpCounters(
        hash_ops=n_s, seq_tuple_reads=n_s, bytes_read=8 * n_s,
        chain_steps=steps, key_compares=steps,
        random_accesses=steps + n_s,
        output_tuples=outputs, bytes_written=8 * outputs,
    )
    per_thread = NoPartitionJoin._split_counters(probe, n_s, config.n_threads)
    probe_phase = PhaseResult("probe", pool.static_phase_seconds(per_thread),
                              probe)
    return _analytic_result("cbase-npj", wl, [build_phase, probe_phase],
                            outputs)


# ---------------------------------------------------------------------------
# CSH
# ---------------------------------------------------------------------------


def simulate_csh_detection(wl: AnalyticWorkload, config: CSHConfig,
                           seed: SeedLike = None) -> np.ndarray:
    """Simulate CSH's R sampling on the histogram; returns skewed keys."""
    n_r = wl.n_r
    sample_size = max(int(round(n_r * config.sample_rate)), min(n_r, 1))
    if sample_size == 0 or n_r == 0:
        return np.empty(0, dtype=np.uint32)
    rng = make_rng(config.sample_seed if seed is None else seed)
    cum = np.cumsum(wl.cr)
    draws = rng.integers(0, n_r, size=sample_size)
    key_idx = np.searchsorted(cum, draws, side="right")
    freq = np.bincount(key_idx, minlength=wl.keys.size)
    return np.sort(wl.keys[freq >= config.freq_threshold])


def analytic_csh(wl: AnalyticWorkload,
                 config: CSHConfig = CSHConfig(),
                 skewed_keys: Optional[np.ndarray] = None) -> JoinResult:
    """Paper-scale CSH.

    ``skewed_keys`` injects a detected key set (used by the equivalence
    tests); by default detection is simulated on the histogram.
    """
    pool = ThreadPool(config.n_threads, config.cost_model)
    bits1, bits2 = config.resolve_bits(max(wl.n_r, wl.n_s))
    if skewed_keys is None:
        skewed_keys = simulate_csh_detection(wl, config)
    skewed_keys = np.asarray(skewed_keys, dtype=np.uint32)
    n_r, n_s = wl.n_r, wl.n_s

    sample_size = max(int(round(n_r * config.sample_rate)), min(n_r, 1))
    sample_counters = OpCounters(
        sample_ops=sample_size, hash_ops=sample_size,
        chain_steps=sample_size, seq_tuple_reads=sample_size,
        bytes_read=8 * sample_size,
    )
    sample = PhaseResult(
        "sample",
        config.cost_model.seconds(sample_counters) / config.n_threads,
        sample_counters,
        details={"skewed_keys": float(skewed_keys.size)},
    )

    skew_mask = np.isin(wl.keys, skewed_keys)
    cr_skew = np.where(skew_mask, wl.cr, 0)
    cs_skew = np.where(skew_mask, wl.cs, 0)
    cr_norm = np.where(skew_mask, 0, wl.cr)
    cs_norm = np.where(skew_mask, 0, wl.cs)
    n_norm_s = int(cs_norm.sum())
    fly = int(np.sum(cr_skew * cs_skew))

    seconds = 0.0
    counters = OpCounters()
    # R pass: per-thread scan over the original table.
    per_thread = []
    for a, b in split_segments(n_r, config.n_threads):
        m = b - a
        per_thread.append(OpCounters(
            seq_tuple_reads=2 * m, hash_ops=2 * m, key_compares=m,
            tuple_moves=m, bytes_read=16 * m, bytes_written=8 * m,
        ))
    seconds += pool.static_phase_seconds(per_thread)
    counters += OpCounters.sum(per_thread)

    hashes = hash_keys(wl.keys)
    p1 = radix_bits(hashes, 0, bits1)
    if bits2 > 0:
        sizes1 = np.bincount(p1, weights=cr_norm.astype(float),
                             minlength=1 << bits1).astype(np.int64)
        tasks = [_scan_counters(int(m)) for m in sizes1]
        seconds += pool.queue_phase_seconds(tasks).makespan
        counters += OpCounters.sum(tasks)

    # S pass: even-spread model of the per-thread scan + on-the-fly joins.
    per_thread = []
    for a, b in split_segments(n_s, config.n_threads):
        m = b - a
        frac = m / n_s if n_s else 0.0
        n_norm = int(round(n_norm_s * frac))
        fly_t = int(round(fly * frac))
        per_thread.append(OpCounters(
            seq_tuple_reads=m + n_norm + fly_t,
            hash_ops=m + n_norm,
            key_compares=m,
            tuple_moves=n_norm,
            output_tuples=fly_t,
            bytes_read=(m + n_norm) * 8 + fly_t * 8,
            bytes_written=n_norm * 8 + fly_t * 8,
        ))
    seconds += pool.static_phase_seconds(per_thread)
    counters += OpCounters.sum(per_thread)
    if bits2 > 0:
        sizes1 = np.bincount(p1, weights=cs_norm.astype(float),
                             minlength=1 << bits1).astype(np.int64)
        tasks = [_scan_counters(int(m)) for m in sizes1]
        seconds += pool.queue_phase_seconds(tasks).makespan
        counters += OpCounters.sum(tasks)
    partition = PhaseResult("partition", seconds, counters, details={
        "skewed_r_tuples": float(cr_skew.sum()),
        "skewed_s_tuples": float(cs_skew.sum()),
        "skewed_output": float(fly),
    })

    # NM-join over normal keys only.
    fanout = 1 << (bits1 + bits2)
    pid = (p1 << bits2) | radix_bits(hashes, bits1, bits2)
    grouped = _group_by_partition(pid, fanout, cr_norm, cs_norm)
    pairs = np.flatnonzero((grouped.r_sizes > 0) & (grouped.s_sizes > 0))
    task_counters = []
    for p in pairs:
        idx = grouped.key_slice(int(p))
        task_counters.append(
            _cbase_join_task(hashes[idx], cr_norm[idx], cs_norm[idx]))
    schedule = pool.queue_phase_seconds(task_counters)
    nm_join = PhaseResult(
        "nm-join", schedule.makespan, OpCounters.sum(task_counters),
        task_count=len(task_counters),
    )
    return _analytic_result(
        "csh", wl, [sample, partition, nm_join], wl.output_count(),
        skewed_keys=int(skewed_keys.size),
        skewed_output=fly,
        bits_pass1=bits1, bits_pass2=bits2,
    )


# ---------------------------------------------------------------------------
# GPU common: NM-join block estimate
# ---------------------------------------------------------------------------


def _expected_round_max(values: np.ndarray, probs: np.ndarray,
                        t: int) -> float:
    """E[max of t iid draws] over a discrete (value, prob) distribution."""
    if values.size == 0 or t <= 0:
        return 0.0
    order = np.argsort(values)[::-1]
    v = values[order].astype(np.float64)
    w = probs[order].astype(np.float64)
    W = np.minimum(np.cumsum(w), 1.0)
    p_ge = 1.0 - (1.0 - W) ** t
    v_next = np.append(v[1:], 0.0)
    return float(np.sum((v - v_next) * p_ge))


def _gpu_probe_estimate(hashes, crp, csp, bucket_bits, block_threads):
    """Expected (useful steps, lockstep steps per full partition probe)."""
    n_s = int(csp.sum())
    if crp.size == 0 or n_s == 0:
        return 0, 0
    b = bucket_ids(hashes, bucket_bits)
    blen = np.bincount(b, weights=crp.astype(float),
                       minlength=1 << bucket_bits)
    useful = int(round(float(np.sum(csp * blen[b]))))
    probe_w = np.bincount(b, weights=csp.astype(float),
                          minlength=1 << bucket_bits) / n_s
    nonzero = blen > 0
    e_max = _expected_round_max(blen[nonzero], probe_w[nonzero],
                                min(block_threads, n_s))
    rounds = math.ceil(n_s / block_threads)
    lockstep = int(round(rounds * e_max))
    return useful, max(lockstep, 0)


def _gpu_join_block(hashes, crp, csp, bucket_bits, block_threads,
                    frac: float = 1.0) -> OpCounters:
    """Expected counters of one NM-join/sub-list block.

    ``frac`` scales the R side (a sub-list holding that fraction of the
    partition's R tuples); the whole S partition is probed either way.
    """
    n_r_full = int(crp.sum())
    n_s = int(csp.sum())
    n_r = int(round(n_r_full * frac))
    counters = OpCounters(
        hash_ops=n_r + n_s,
        table_inserts=n_r,
        bytes_read=8 * (n_r + n_s),
    )
    if n_r_full == 0 or n_s == 0:
        return counters
    useful_full, lockstep_full = _gpu_probe_estimate(
        hashes, crp, csp, bucket_bits, block_threads)
    useful = int(round(useful_full * frac))
    lockstep = int(round(lockstep_full * frac))
    outputs = int(round(float(np.sum(crp * csp)) * frac))
    counters.chain_steps += lockstep
    counters.sync_barriers += lockstep
    counters.atomic_ops += useful
    counters.key_compares += useful
    counters.divergent_steps += max(lockstep * block_threads - useful, 0)
    counters.output_tuples += outputs
    counters.bytes_written += 8 * outputs
    return counters


# ---------------------------------------------------------------------------
# Gbase
# ---------------------------------------------------------------------------


def analytic_gbase(wl: AnalyticWorkload,
                   config: GbaseConfig = GbaseConfig()) -> JoinResult:
    """Paper-scale Gbase on the SIMT cost simulator."""
    sim = GPUSimulator(device=config.device,
                       cost_model=cost_model_for(config.device))
    bits1, bits2 = config.resolve_bits(max(wl.n_r, wl.n_s))
    device = config.device

    seconds = gbase_partition_cost(sim, wl.n_r, True, "r")
    seconds += gbase_partition_cost(sim, wl.n_s, True, "s")
    part_counters = OpCounters.sum(l.counters for l in sim.launches)
    partition = PhaseResult("partition", seconds, part_counters)

    hashes = hash_keys(wl.keys)
    pid = ((radix_bits(hashes, 0, bits1) << bits2)
           | radix_bits(hashes, bits1, bits2))
    fanout = 1 << (bits1 + bits2)
    grouped = _group_by_partition(pid, fanout, wl.cr, wl.cs)
    sublist_cap = config.resolve_sublist_capacity()
    bucket_bits = bits_for(next_pow2(max(device.shared_capacity_tuples, 2)))

    work: List[BlockWork] = []
    pairs = np.flatnonzero((grouped.r_sizes > 0) & (grouped.s_sizes > 0))
    for p in pairs:
        idx = grouped.key_slice(int(p))
        h, crp, csp = hashes[idx], wl.cr[idx], wl.cs[idx]
        n_r = int(grouped.r_sizes[p])
        n_sub = max(math.ceil(n_r / sublist_cap), 1)
        full_frac = min(sublist_cap / n_r, 1.0) if n_r else 1.0
        n_full = n_r // sublist_cap
        remainder = n_r - n_full * sublist_cap
        if n_full:
            work.append(BlockWork(n_full, _gpu_join_block(
                h, crp, csp, bucket_bits, device.threads_per_block,
                frac=full_frac)))
        if remainder or n_full == 0:
            work.append(BlockWork(1, _gpu_join_block(
                h, crp, csp, bucket_bits, device.threads_per_block,
                frac=(remainder / n_r) if n_r and n_full else 1.0)))
    launch = sim.launch("gbase_join", work)
    join = PhaseResult("join", launch.seconds, launch.counters,
                       task_count=launch.n_blocks)
    return _analytic_result("gbase", wl, [partition, join], wl.output_count(),
                            bits_pass1=bits1, bits_pass2=bits2,
                            join_blocks=launch.n_blocks,
                            device=device.name)


# ---------------------------------------------------------------------------
# GSH
# ---------------------------------------------------------------------------


def analytic_gsh(wl: AnalyticWorkload,
                 config: GSHConfig = GSHConfig()) -> JoinResult:
    """Paper-scale GSH on the SIMT cost simulator.

    Detection is modelled as "the top-k truly most frequent keys of each
    large partition" — the limit of the paper's sampling for any reasonable
    sample, since skewed keys dominate their partitions by construction.
    """
    sim = GPUSimulator(device=config.device,
                       cost_model=cost_model_for(config.device))
    bits1, bits2 = config.resolve_bits(max(wl.n_r, wl.n_s))
    device = config.device

    hashes = hash_keys(wl.keys)
    p1 = radix_bits(hashes, 0, bits1)
    pid = (p1 << bits2) | radix_bits(hashes, bits1, bits2)
    fanout = 1 << (bits1 + bits2)

    seconds = 0.0
    for n, weights, label in ((wl.n_r, wl.cr, "r"), (wl.n_s, wl.cs, "s")):
        if bits2 > 0:
            sizes1 = np.bincount(p1, weights=weights.astype(float),
                                 minlength=1 << bits1).astype(np.int64)
        else:
            sizes1 = []
        seconds += gsh_partition_cost(sim, n, 1 << bits1, sizes1, label)
    part_counters = OpCounters.sum(l.counters for l in sim.launches)
    partition = PhaseResult("partition", seconds, part_counters)

    grouped = _group_by_partition(pid, fanout, wl.cr, wl.cs)
    threshold = config.large_threshold_tuples()
    large = np.flatnonzero((grouped.r_sizes > threshold)
                           | (grouped.s_sizes > threshold))

    # Detect: one block per large partition, sampling both sides.
    detect_work = []
    skew_mask = np.zeros(wl.keys.size, dtype=bool)
    for p in large:
        idx = grouped.key_slice(int(p))
        pool_n = int(grouped.r_sizes[p] + grouped.s_sizes[p])
        sample = max(int(round(pool_n * config.sample_rate)),
                     min(pool_n, 1))
        detect_work.append(BlockWork(1, OpCounters(
            sample_ops=sample, hash_ops=sample, chain_steps=sample,
            seq_tuple_reads=sample, bytes_read=8 * sample,
        )))
        totals = wl.cr[idx] + wl.cs[idx]
        top = idx[np.argsort(totals, kind="stable")[::-1][:config.top_k]]
        skew_mask[top] = True
    launch = sim.launch("gsh_detect", detect_work)
    detect = PhaseResult("detect", launch.seconds, launch.counters,
                         details={"large_partitions": float(large.size)})

    # Split: both sides of each large partition rewritten.
    split_work: List[BlockWork] = []
    split_tuple = OpCounters(
        seq_tuple_reads=2, key_compares=config.top_k, tuple_moves=1,
        bytes_read=16, bytes_written=8,
    )
    for sizes in (grouped.r_sizes, grouped.s_sizes):
        for p in large:
            split_work.extend(uniform_grid(int(sizes[p]),
                                           PARTITION_TUPLES_PER_BLOCK,
                                           split_tuple))
    launch = sim.launch("gsh_split", split_work)
    cr_norm = np.where(skew_mask, 0, wl.cr)
    cs_norm = np.where(skew_mask, 0, wl.cs)
    split = PhaseResult("split", launch.seconds, launch.counters,
                        details={"skewed_keys": float(skew_mask.sum())})

    # NM-join: one block per normal pair.
    grouped_norm = _group_by_partition(pid, fanout, cr_norm, cs_norm)
    bucket_bits = bits_for(next_pow2(max(device.shared_capacity_tuples, 2)))
    nm_work = []
    pairs = np.flatnonzero((grouped_norm.r_sizes > 0)
                           & (grouped_norm.s_sizes > 0))
    for p in pairs:
        idx = grouped_norm.key_slice(int(p))
        nm_work.append(BlockWork(1, _gpu_join_block(
            hashes[idx], cr_norm[idx], cs_norm[idx], bucket_bits,
            device.threads_per_block)))
    launch = sim.launch("gsh_nm_join", nm_work)
    nm_join = PhaseResult("nm-join", launch.seconds, launch.counters,
                          task_count=launch.n_blocks)

    # Skew join: one block per skewed R tuple per key.
    skew_work = []
    skew_idx = np.flatnonzero(skew_mask & (wl.cr > 0) & (wl.cs > 0))
    for i in skew_idx:
        n_r_k, n_s_k = int(wl.cr[i]), int(wl.cs[i])
        skew_work.append(BlockWork(n_r_k, OpCounters(
            seq_tuple_reads=n_s_k, output_tuples=n_s_k, atomic_ops=1,
            bytes_read=8 + 8 * n_s_k, bytes_written=8 * n_s_k,
        )))
    launch = sim.launch("gsh_skew_join", skew_work)
    skew_join = PhaseResult("skew-join", launch.seconds, launch.counters,
                            task_count=launch.n_blocks)

    skew_output = int(np.sum(wl.cr[skew_idx] * wl.cs[skew_idx]))
    return _analytic_result(
        "gsh", wl, [partition, detect, split, nm_join, skew_join],
        wl.output_count(),
        bits_pass1=bits1, bits_pass2=bits2,
        large_partitions=int(large.size),
        skewed_keys=int(skew_mask.sum()),
        skewed_output=skew_output,
        device=device.name,
    )


#: Registry mirroring :data:`repro.api.ALGORITHMS` for the analytic path.
ANALYTIC_EXECUTORS = {
    "cbase": analytic_cbase,
    "cbase-npj": analytic_npj,
    "csh": analytic_csh,
    "gbase": analytic_gbase,
    "gsh": analytic_gsh,
}


def analytic_run(algorithm: str, wl: AnalyticWorkload, **kwargs) -> JoinResult:
    """Run one algorithm's analytic executor by name."""
    try:
        executor = ANALYTIC_EXECUTORS[algorithm]
    except KeyError:
        raise WorkloadError(
            f"no analytic executor for {algorithm!r}") from None
    return executor(wl, **kwargs)

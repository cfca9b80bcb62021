"""Parallel radix partitioning (the Cbase/CSH partition phase).

Implements the partitioning scheme the paper describes for Cbase
(Section II-B): the input is divided into equal segments per thread; each
thread scans its segment twice — once to build a per-thread histogram, once
to copy tuples to contention-free destinations computed from prefix sums of
the histograms.  A second pass re-partitions each first-pass partition with
the next group of hash bits, dispatched through a task queue; oversized
partitions can be further refined with extra bits (Cbase's skew-splitting
technique — which, by construction, can never separate tuples sharing a
key, since they share all hash bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.hashing import hash_keys, radix_bits
from repro.cpu.segments import split_segments
from repro.errors import ConfigError
from repro.exec.backend import dispatch
from repro.exec.counters import OpCounters
from repro.types import KEY_DTYPE, PAYLOAD_DTYPE, TUPLE_BYTES


@dataclass
class PartitionedRelation:
    """A relation stored partition-contiguously.

    ``offsets`` has ``fanout + 1`` entries; partition ``p`` occupies
    ``[offsets[p], offsets[p+1])`` of the key/payload arrays.
    """

    keys: np.ndarray
    payloads: np.ndarray
    offsets: np.ndarray
    #: Hashes of the stored keys, kept so later phases need not re-hash.
    hashes: Optional[np.ndarray] = None

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ConfigError("offsets must be a 1-D array with >= 1 entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.keys.size:
            raise ConfigError("offsets must span the full relation")
        if np.any(np.diff(self.offsets) < 0):
            raise ConfigError("offsets must be non-decreasing")

    @property
    def fanout(self) -> int:
        """Number of partitions."""
        return int(self.offsets.size - 1)

    @property
    def n(self) -> int:
        """Total tuples stored."""
        return int(self.keys.size)

    def sizes(self) -> np.ndarray:
        """Tuples per partition."""
        return np.diff(self.offsets)

    def partition(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """Keys and payloads of one partition."""
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        return self.keys[lo:hi], self.payloads[lo:hi]

    def partition_hashes(self, p: int) -> np.ndarray:
        """Hashes of one partition's keys."""
        if self.hashes is None:
            lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
            return hash_keys(self.keys[lo:hi])
        lo, hi = int(self.offsets[p]), int(self.offsets[p + 1])
        return self.hashes[lo:hi]


@dataclass
class PartitionPassResult:
    """Output of one partitioning pass plus its cost bookkeeping."""

    partitioned: PartitionedRelation
    #: Counters per thread (static pass) or per task (queued pass).
    unit_counters: List[OpCounters] = field(default_factory=list)

    @property
    def total_counters(self) -> OpCounters:
        """Counters summed over all units."""
        return OpCounters.sum(self.unit_counters)


def _scan_counters(n: int) -> OpCounters:
    """Counters for two-scan count-then-copy partitioning of n tuples."""
    return OpCounters(
        seq_tuple_reads=2 * n,
        hash_ops=2 * n,
        tuple_moves=n,
        bytes_read=2 * n * TUPLE_BYTES,
        bytes_written=n * TUPLE_BYTES,
    )


def _partition_bases(hist: np.ndarray) -> np.ndarray:
    """Per-thread output bases from the first-scan histograms.

    ``base[t, p]`` is the start slot of thread ``t``'s tuples of partition
    ``p`` in the partition-major, thread-minor destination layout.  Shared
    by both backends: it is the prefix-sum over the (small) histogram
    matrix, not per-tuple work.
    """
    flat = hist.T.ravel()  # order: (p0,t0), (p0,t1), ..., (p1,t0), ...
    excl = np.cumsum(flat) - flat
    return excl.reshape(hist.shape[1], hist.shape[0]).T


def _scatter_outputs(n: int, hist: np.ndarray):
    fanout = hist.shape[1]
    keys_out = np.empty(n, dtype=KEY_DTYPE)
    pays_out = np.empty(n, dtype=PAYLOAD_DTYPE)
    hashes_out = np.empty(n, dtype=np.uint32)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(hist.sum(axis=0), out=offsets[1:])
    return keys_out, pays_out, hashes_out, offsets


def _scatter_vector(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch scatter: bincount histograms + one fancy-index pass per thread."""
    part_ids = radix_bits(hashes, start_bit, n_bits)
    fanout = 1 << n_bits
    n_threads = len(segments)
    hist = np.zeros((n_threads, fanout), dtype=np.int64)
    for t, (a, b) in enumerate(segments):
        if b > a:
            hist[t] = np.bincount(part_ids[a:b], minlength=fanout)
    base = _partition_bases(hist)
    keys_out, pays_out, hashes_out, offsets = _scatter_outputs(keys.size, hist)
    for t, (a, b) in enumerate(segments):
        if b <= a:
            continue
        ids = part_ids[a:b]
        order = np.argsort(ids, kind="stable")
        counts = hist[t]
        run_start = np.repeat(base[t], counts)
        run_origin = np.repeat(np.cumsum(counts) - counts, counts)
        dest = run_start + (np.arange(b - a) - run_origin)
        keys_out[dest] = keys[a:b][order]
        pays_out[dest] = payloads[a:b][order]
        hashes_out[dest] = hashes[a:b][order]
    return keys_out, pays_out, hashes_out, offsets


def _scatter_scalar(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Literal two-scan scatter: count loop, then tuple-at-a-time copies."""
    fanout = 1 << n_bits
    n_threads = len(segments)
    ids = radix_bits(hashes, start_bit, n_bits).tolist()
    hist = np.zeros((n_threads, fanout), dtype=np.int64)
    for t, (a, b) in enumerate(segments):
        row = hist[t]
        for i in range(a, b):
            row[ids[i]] += 1
    base = _partition_bases(hist)
    keys_out, pays_out, hashes_out, offsets = _scatter_outputs(keys.size, hist)
    for t, (a, b) in enumerate(segments):
        cursor = base[t].tolist()
        for i in range(a, b):
            p = ids[i]
            d = cursor[p]
            cursor[p] = d + 1
            keys_out[d] = keys[i]
            pays_out[d] = payloads[i]
            hashes_out[d] = hashes[i]
    return keys_out, pays_out, hashes_out, offsets


def _pool_task(arena, keys, payloads, hashes, start_bit, n_bits):
    """Kernel kwargs shared by every morsel of one pool pass.

    Inputs ship by ref — in place when they already live in the arena —
    next to three fresh outputs the returned arrays keep leased.
    Returns (task, (keys_out, pays_out, hashes_out)).
    """
    task = dict(keys=arena.ref(keys), payloads=arena.ref(payloads),
                hashes=arena.ref(hashes), start_bit=start_bit, n_bits=n_bits)
    outs = []
    for name, dtype in (("keys_out", KEY_DTYPE), ("pays_out", PAYLOAD_DTYPE),
                        ("hashes_out", np.uint32)):
        view, task[name] = arena.empty(keys.size, dtype)
        outs.append(view)
    return task, outs


def _scatter_parallel(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vector scatter with its second scan fanned out over the pool.

    Morsels are the pool's own contiguous slices, ``n_workers *
    MORSELS_PER_WORKER`` of them, not the simulated segments (those keep
    pricing the counters): for *any* contiguous segmentation the
    partition-major, segment-minor layout is the stable order by
    partition id, so the output matches ``_scatter_vector`` bit for bit.
    The driver takes each morsel's histogram with one bincount; the
    outputs stay in the arena, leased by the returned arrays.
    """
    from repro.exec.parallel import MORSELS_PER_WORKER, SharedArena, morsel_pool

    pool = morsel_pool(keys.size)
    if pool is None:
        return _scatter_vector(keys, payloads, hashes, start_bit, n_bits,
                               segments)
    fanout = 1 << n_bits
    morsels = split_segments(keys.size, pool.n_workers * MORSELS_PER_WORKER)
    hist = np.stack([
        np.bincount(radix_bits(hashes[a:b], start_bit, n_bits),
                    minlength=fanout)
        for (a, b) in morsels])
    base = _partition_bases(hist)
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    np.cumsum(hist.sum(axis=0), out=offsets[1:])
    with SharedArena(use_shm=pool.uses_processes) as arena:
        task, (keys_out, pays_out, hashes_out) = _pool_task(
            arena, keys, payloads, hashes, start_bit, n_bits)
        pool.run("partition_scatter", [
            dict(task, a=a, b=b, base_row=base[t], counts_row=hist[t])
            for t, (a, b) in enumerate(morsels) if b > a
        ])
    return keys_out, pays_out, hashes_out, offsets


def _scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    segments: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contention-free two-scan scatter, on the ambient backend.

    Tuples go to partition ``radix_bits(hashes, start_bit, n_bits)``.
    Returns (keys_out, payloads_out, hashes_out, offsets).  The destination
    layout is partition-major, thread-minor, exactly like the per-thread
    output offsets Cbase computes from the first-scan histograms; all
    backends produce bit-identical arrays.
    """
    impl = dispatch(_scatter_scalar, _scatter_vector, _scatter_parallel)
    return impl(keys, payloads, hashes, start_bit, n_bits, segments)


def partition_pass(
    keys: np.ndarray,
    payloads: np.ndarray,
    hashes: np.ndarray,
    start_bit: int,
    n_bits: int,
    n_threads: int,
) -> PartitionPassResult:
    """One statically divided partitioning pass over a full relation."""
    if n_bits < 0:
        raise ConfigError("n_bits must be non-negative")
    segments = split_segments(keys.size, n_threads)
    keys_out, pays_out, hashes_out, offsets = _scatter(
        keys, payloads, hashes, start_bit, n_bits, segments
    )
    per_thread = [_scan_counters(b - a) for (a, b) in segments]
    return PartitionPassResult(
        partitioned=PartitionedRelation(keys_out, pays_out, offsets, hashes_out),
        unit_counters=per_thread,
    )


def _refine_one_vector(pkeys, ppays, phash, ids, sub_fanout,
                       keys_out, pays_out, hashes_out, lo):
    """Reorder one parent partition by sub-id via a stable argsort."""
    m = pkeys.size
    order = np.argsort(ids, kind="stable")
    keys_out[lo:lo + m] = pkeys[order]
    pays_out[lo:lo + m] = ppays[order]
    hashes_out[lo:lo + m] = phash[order]
    return np.bincount(ids, minlength=sub_fanout)


def _refine_one_scalar(pkeys, ppays, phash, ids, sub_fanout,
                       keys_out, pays_out, hashes_out, lo):
    """Reorder one parent partition tuple-at-a-time (count, then copy)."""
    id_list = ids.tolist()
    counts = [0] * sub_fanout
    for sid in id_list:
        counts[sid] += 1
    cursor = [0] * sub_fanout
    acc = 0
    for sid in range(sub_fanout):
        cursor[sid] = acc
        acc += counts[sid]
    for i, sid in enumerate(id_list):
        d = cursor[sid]
        cursor[sid] = d + 1
        keys_out[lo + d] = pkeys[i]
        pays_out[lo + d] = ppays[i]
        hashes_out[lo + d] = phash[i]
    return np.asarray(counts, dtype=np.int64)


def _refine_parallel(
    parent: PartitionedRelation,
    start_bit: int,
    n_bits: int,
    refine_mask: Optional[np.ndarray],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, dict]]:
    """Refine every selected partition on the worker pool.

    Morsels are chunks of consecutive refined partitions (each partition
    reorders only its own [lo, hi) span, so chunks are contention free).
    The parent's arrays ship by the refs their arena segments already
    have when they are pool outputs themselves, and the outputs stay in
    the arena.  Returns ``(keys_out, pays_out, hashes_out, {p:
    sub_sizes})`` with the refined spans filled, or None when the pool
    is not engaged and the caller should refine on the vector path.
    """
    from repro.exec.parallel import MORSELS_PER_WORKER, SharedArena, morsel_pool

    if parent.hashes is None:
        return None
    pool = morsel_pool(parent.n)
    if pool is None:
        return None
    spans = [(p, int(parent.offsets[p]), int(parent.offsets[p + 1]))
             for p in range(parent.fanout)
             if refine_mask is None or refine_mask[p]]
    target = max(parent.n // max(pool.n_workers * MORSELS_PER_WORKER, 1), 1)
    chunks: List[List[Tuple[int, int, int]]] = []
    chunk_tuples = 0
    for span in spans:
        if not chunks or chunk_tuples >= target:
            chunks.append([])
            chunk_tuples = 0
        chunks[-1].append(span)
        chunk_tuples += span[2] - span[1]
    with SharedArena(use_shm=pool.uses_processes) as arena:
        task, (keys_out, pays_out, hashes_out) = _pool_task(
            arena, parent.keys, parent.payloads, parent.hashes,
            start_bit, n_bits)
        results = pool.run("refine_chunk", [
            dict(task, bounds=[(lo, hi) for (_p, lo, hi) in chunk])
            for chunk in chunks
        ])
    sub_sizes_by_p = {}
    for chunk, matrix in zip(chunks, results):
        for row, (p, _lo, _hi) in enumerate(chunk):
            sub_sizes_by_p[p] = matrix[row]
    return keys_out, pays_out, hashes_out, sub_sizes_by_p


def refine_pass(
    parent: PartitionedRelation,
    start_bit: int,
    n_bits: int,
    refine_mask: Optional[np.ndarray] = None,
) -> PartitionPassResult:
    """Re-partition each (selected) parent partition with further hash bits.

    This is Cbase's second, task-queued pass: each parent partition becomes
    one task.  If ``refine_mask`` is given, only marked partitions are
    refined; others pass through as single sub-partitions (used by the
    oversized-partition splitting).  Returns a new PartitionedRelation whose
    fanout is ``parent.fanout * 2**n_bits`` (pass-through partitions occupy
    sub-slot 0 and leave their siblings empty), with one counters entry per
    refined partition task.
    """
    sub_fanout = 1 << n_bits
    fanout = parent.fanout * sub_fanout
    offsets = np.zeros(fanout + 1, dtype=np.int64)
    sizes = np.zeros(fanout, dtype=np.int64)
    task_counters: List[OpCounters] = []
    parallel = _refine_parallel(parent, start_bit, n_bits, refine_mask)
    if parallel is not None:
        keys_out, pays_out, hashes_out, parallel_sizes = parallel
    else:
        keys_out = np.empty(parent.n, dtype=KEY_DTYPE)
        pays_out = np.empty(parent.n, dtype=PAYLOAD_DTYPE)
        hashes_out = np.empty(parent.n, dtype=np.uint32)
    for p in range(parent.fanout):
        lo, hi = int(parent.offsets[p]), int(parent.offsets[p + 1])
        m = hi - lo
        pkeys = parent.keys[lo:hi]
        ppays = parent.payloads[lo:hi]
        phash = parent.partition_hashes(p)
        if refine_mask is not None and not refine_mask[p]:
            keys_out[lo:hi] = pkeys
            pays_out[lo:hi] = ppays
            hashes_out[lo:hi] = phash
            sizes[p * sub_fanout] = m
            continue
        if parallel is not None:
            sub_sizes = parallel_sizes[p]
        else:
            ids = radix_bits(phash, start_bit, n_bits)
            reorder = dispatch(_refine_one_scalar, _refine_one_vector)
            sub_sizes = reorder(pkeys, ppays, phash, ids, sub_fanout,
                                keys_out, pays_out, hashes_out, lo)
        sizes[p * sub_fanout:(p + 1) * sub_fanout] = sub_sizes
        task_counters.append(_scan_counters(m))
    np.cumsum(sizes, out=offsets[1:])
    return PartitionPassResult(
        partitioned=PartitionedRelation(keys_out, pays_out, offsets, hashes_out),
        unit_counters=task_counters,
    )


def partition_relation(
    keys: np.ndarray,
    payloads: np.ndarray,
    bits_pass1: int,
    bits_pass2: int,
    n_threads: int,
) -> Tuple[PartitionPassResult, Optional[PartitionPassResult]]:
    """Full one- or two-pass radix partitioning of a relation.

    Returns the pass-1 result and, if ``bits_pass2 > 0``, the pass-2 result
    (whose ``partitioned`` member holds the final layout).
    """
    hashes = hash_keys(keys)
    pass1 = partition_pass(keys, payloads, hashes, 0, bits_pass1, n_threads)
    if bits_pass2 <= 0:
        return pass1, None
    pass2 = refine_pass(pass1.partitioned, bits_pass1, bits_pass2)
    return pass1, pass2


def choose_radix_bits(n_tuples: int, target_partition_tuples: int,
                      max_total_bits: int = 18) -> Tuple[int, int]:
    """Pick (pass-1 bits, pass-2 bits) so partitions hit a target size.

    Mirrors Cbase's tuning: total fanout ~ n / target, split across two
    passes to bound per-pass fanout (the TLB-miss motivation for the radix
    join's multi-pass design).
    """
    if target_partition_tuples <= 0:
        raise ConfigError("target_partition_tuples must be positive")
    total_bits = 0
    while (n_tuples >> total_bits) > target_partition_tuples and total_bits < max_total_bits:
        total_bits += 1
    bits1 = (total_bits + 1) // 2
    bits2 = total_bits - bits1
    return bits1, bits2

"""Worker-side compute kernels for the parallel backend.

Each kernel is a pure function over arena-attached arrays: no fault
scopes, no tracer, no counters.  All accounting (operation counters,
simulated seconds, fault injection and recovery) stays in the driver,
which is what keeps every backend's observable results bit-identical —
a worker can die or be re-ordered without the cost model noticing.

Every kernel mirrors one segment/morsel of the corresponding vector
implementation exactly (same numpy expressions, same stable sorts), so
that concatenating the morsel results reproduces the vector arrays
bit-for-bit.  The differential suite pins this down per algorithm.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exec.parallel.arena import ArrayRef, attached


def worker_identity() -> int:
    """The executing process id (pool diagnostics and tests)."""
    return os.getpid()


def partition_hist(ids: ArrayRef, a: int, b: int, fanout: int) -> np.ndarray:
    """First scan of one segment: the per-thread partition histogram."""
    if b <= a:
        return np.zeros(fanout, dtype=np.int64)
    with attached(ids) as (ids_arr,):
        return np.bincount(ids_arr[a:b], minlength=fanout)


def partition_scatter(
    keys: ArrayRef, payloads: ArrayRef, hashes: ArrayRef, ids: ArrayRef,
    keys_out: ArrayRef, pays_out: ArrayRef, hashes_out: ArrayRef,
    a: int, b: int, base_row: np.ndarray, counts_row: np.ndarray,
) -> None:
    """Second scan of one segment: the contention-free fancy-index scatter.

    ``base_row``/``counts_row`` are this thread's rows of the prefix-sum
    base matrix and histogram — small arrays shipped with the task, so the
    destinations are disjoint across segments by construction.
    """
    if b <= a:
        return None
    with attached(keys, payloads, hashes, ids,
                  keys_out, pays_out, hashes_out) as (
            k, p, h, i, ko, po, ho):
        seg_ids = i[a:b]
        order = np.argsort(seg_ids, kind="stable")
        run_start = np.repeat(base_row, counts_row)
        run_origin = np.repeat(np.cumsum(counts_row) - counts_row, counts_row)
        dest = run_start + (np.arange(b - a) - run_origin)
        ko[dest] = k[a:b][order]
        po[dest] = p[a:b][order]
        ho[dest] = h[a:b][order]
    return None


def refine_chunk(
    keys: ArrayRef, payloads: ArrayRef, hashes: ArrayRef, ids: ArrayRef,
    keys_out: ArrayRef, pays_out: ArrayRef, hashes_out: ArrayRef,
    bounds: Sequence[Tuple[int, int]], sub_fanout: int,
) -> np.ndarray:
    """Refine a chunk of parent partitions, one stable argsort each.

    ``bounds`` holds each partition's [lo, hi) span; partitions only ever
    move tuples within their own span, so chunks are contention free.
    Returns the (len(bounds), sub_fanout) sub-size matrix.
    """
    sub_sizes = np.empty((len(bounds), sub_fanout), dtype=np.int64)
    with attached(keys, payloads, hashes, ids,
                  keys_out, pays_out, hashes_out) as (
            k, p, h, i, ko, po, ho):
        for j, (lo, hi) in enumerate(bounds):
            pid = i[lo:hi]
            order = np.argsort(pid, kind="stable")
            ko[lo:hi] = k[lo:hi][order]
            po[lo:hi] = p[lo:hi][order]
            ho[lo:hi] = h[lo:hi][order]
            sub_sizes[j] = np.bincount(pid, minlength=sub_fanout)
    return sub_sizes


def match_stats(
    r_uniq: ArrayRef, r_counts: ArrayRef, r_sums: ArrayRef,
    s_keys: ArrayRef, s_payloads: ArrayRef, a: int, b: int,
) -> Tuple[int, int]:
    """Join (count, checksum mod 2**64) of one S morsel against the R index.

    Checksum distributivity: summing ``r_sums[key] * s_payload`` per S
    tuple equals the vector backend's per-key ``r_sums * s_sums`` products
    exactly, because multiplication distributes over addition mod 2**64.
    """
    if b <= a:
        return 0, 0
    with attached(r_uniq, r_counts, r_sums, s_keys, s_payloads) as (
            ru, rc, rs, sk, sp):
        seg_keys = sk[a:b]
        if ru.size == 0:
            return 0, 0
        pos = np.searchsorted(ru, seg_keys)
        pos = np.minimum(pos, ru.size - 1)
        hit = ru[pos] == seg_keys
        total = int(rc[pos][hit].sum())
        checksum = int(np.sum(rs[pos][hit] * sp[a:b][hit].astype(np.uint64),
                              dtype=np.uint64))
    return total, checksum


#: Name -> callable registry; tasks name their kernel so only small,
#: picklable payloads ever cross the queue.
KERNELS: Dict[str, object] = {
    "worker_identity": worker_identity,
    "partition_hist": partition_hist,
    "partition_scatter": partition_scatter,
    "refine_chunk": refine_chunk,
    "match_stats": match_stats,
}


def run_kernel(name: str, kwargs: Dict) -> object:
    """Execute one named kernel (the worker main loop's dispatch)."""
    return KERNELS[name](**kwargs)

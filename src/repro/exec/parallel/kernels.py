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

from repro.cpu.hashing import hash_keys, radix_ids
from repro.exec.matching import group_stats, lookup_groups
from repro.exec.parallel.arena import (ArrayRef, attached,
                                        attachment_cache_size)


def worker_identity() -> int:
    """The executing process id (pool diagnostics and tests)."""
    return os.getpid()


def worker_attachments() -> Tuple[int, int]:
    """(pid, segments kept mapped) of the executing process (diagnostics)."""
    return os.getpid(), attachment_cache_size()


def partition_scatter(
    keys: ArrayRef, payloads: ArrayRef, hashes: ArrayRef,
    keys_out: ArrayRef, pays_out: ArrayRef, hashes_out: ArrayRef,
    a: int, b: int, start_bit: int, n_bits: int,
    base_row: np.ndarray, counts_row: np.ndarray,
) -> None:
    """Second scan of one morsel: the contention-free fancy-index scatter.

    Radix ids come from the morsel's hashes.  ``base_row``/``counts_row``
    are this morsel's rows of the prefix-sum base matrix and histogram —
    small arrays shipped with the task, so the destinations are disjoint
    across morsels by construction.
    """
    if b <= a:
        return None
    with attached(keys, payloads, hashes, keys_out, pays_out, hashes_out) as (
            k, p, h, ko, po, ho):
        order = np.argsort(radix_ids(h[a:b], start_bit, n_bits),
                           kind="stable")
        run_start = np.repeat(base_row, counts_row)
        run_origin = np.repeat(np.cumsum(counts_row) - counts_row, counts_row)
        dest = run_start + (np.arange(b - a) - run_origin)
        ko[dest] = k[a:b][order]
        po[dest] = p[a:b][order]
        ho[dest] = h[a:b][order]
    return None


def refine_chunk(
    keys: ArrayRef, payloads: ArrayRef, hashes: ArrayRef,
    keys_out: ArrayRef, pays_out: ArrayRef, hashes_out: ArrayRef,
    bounds: Sequence[Tuple[int, int]], start_bit: int, n_bits: int,
) -> np.ndarray:
    """Refine a chunk of parent partitions, one stable argsort each.

    ``bounds`` holds each partition's [lo, hi) span; partitions only ever
    move tuples within their own span, so chunks are contention free.
    Returns the (len(bounds), 2**n_bits) sub-size matrix.
    """
    sub_fanout = 1 << n_bits
    sub_sizes = np.empty((len(bounds), sub_fanout), dtype=np.int64)
    with attached(keys, payloads, hashes, keys_out, pays_out, hashes_out) as (
            k, p, h, ko, po, ho):
        for j, (lo, hi) in enumerate(bounds):
            pid = radix_ids(h[lo:hi], start_bit, n_bits)
            order = np.argsort(pid, kind="stable")
            ko[lo:hi] = k[lo:hi][order]
            po[lo:hi] = p[lo:hi][order]
            ho[lo:hi] = h[lo:hi][order]
            sub_sizes[j] = np.bincount(pid, minlength=sub_fanout)
    return sub_sizes


def match_stats(
    r_hashes: ArrayRef, r_directory: ArrayRef, r_bounds: ArrayRef,
    r_sums: ArrayRef, s_keys: ArrayRef, s_payloads: ArrayRef, a: int, b: int,
) -> Tuple[int, int]:
    """Join (count, checksum mod 2**64) of one S morsel against the R index.

    The R arrays are a :class:`~repro.exec.matching.KeyGroupIndex`'s
    group hashes, directory, bounds and payload sums; the morsel is
    hashed here and probed with the index's own lookup.  Checksum
    distributivity: summing ``r_sums[key] * s_payload`` per S tuple
    equals the vector backend's per-key ``r_sums * s_sums`` products
    exactly, because multiplication distributes over addition mod 2**64.
    """
    if b <= a:
        return 0, 0
    with attached(r_hashes, r_directory, r_bounds, r_sums, s_keys,
                  s_payloads) as (rh, rd, rb, rs, sk, sp):
        hits, groups = lookup_groups(rh, rd, hash_keys(sk[a:b]))
        return group_stats(rb, rs, hits, groups, sp[a:b])


#: Name -> callable registry; tasks name their kernel so only small,
#: picklable payloads ever cross the queue.
KERNELS: Dict[str, object] = {
    "worker_identity": worker_identity,
    "worker_attachments": worker_attachments,
    "partition_scatter": partition_scatter,
    "refine_chunk": refine_chunk,
    "match_stats": match_stats,
}


def run_kernel(name: str, kwargs: Dict) -> object:
    """Execute one named kernel (the worker main loop's dispatch)."""
    return KERNELS[name](**kwargs)

"""Key-equality matching helpers shared by CPU and GPU executors.

These compute the exact join output (count, checksum, and materialized
pairs while small) between two tuple sets, group-wise by key.  They are the
functional core every probe implementation delegates to; operation
*accounting* stays in the callers, which know what the scalar/SIMT
algorithm would have paid.

The batch backends match through a :class:`KeyGroupIndex` of the build
side.  The one-shot functions build one per call; a caller that probes
the same build side many times (cbase-npj's probe segments, one served
request's morsels) builds it once and probes it directly.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exec.backend import dispatch
from repro.exec.output import JoinOutputBuffer, OutputSummary

_U64_MASK = (1 << 64) - 1

#: Materialize real output pairs only while the expansion stays this small;
#: beyond it only the closed-form count/checksum is recorded.
MATERIALIZE_LIMIT = 1 << 21

_NO_MATCHES = np.empty(0, dtype=np.intp)


class KeyGroupIndex:
    """A build side sorted once by key, probed by binary search.

    One stable sort groups the build tuples by key.  The index keeps the
    unique keys, each group's span ``[bounds[g], bounds[g + 1])`` in the
    key-sorted payloads, and each group's exact payload sum mod 2**64.
    The sort is stable, so within a group payloads stay in insertion
    order and :meth:`expand` emits pairs in the order every backend
    does: by S tuple, then by R insertion order.  Probing costs one
    ``searchsorted`` over S, never a re-sort of R, so one index can serve
    any number of probe segments.
    """

    __slots__ = ("keys", "bounds", "payloads", "sums")

    def __init__(self, r_keys: np.ndarray, r_payloads: np.ndarray):
        order = np.argsort(r_keys, kind="stable")
        sorted_keys = r_keys[order]
        self.payloads = r_payloads[order]
        first = np.ones(sorted_keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        starts = np.flatnonzero(first)
        self.keys = sorted_keys[starts]
        self.bounds = np.append(starts, sorted_keys.size)
        self.sums = np.add.reduceat(self.payloads.astype(np.uint64), starts)

    @property
    def counts(self) -> np.ndarray:
        """Build tuples per key group."""
        return np.diff(self.bounds)

    def _lookup(self, s_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(positions of the matching S tuples, their key groups)."""
        if self.keys.size == 0 or s_keys.size == 0:
            return _NO_MATCHES, _NO_MATCHES
        groups = np.searchsorted(self.keys, s_keys)
        np.minimum(groups, self.keys.size - 1, out=groups)
        hits = np.flatnonzero(self.keys[groups] == s_keys)
        return hits, groups[hits]

    def _stats(self, hits, groups, s_payloads) -> Tuple[int, int]:
        # Per S tuple, r_sum[key] * s_payload: multiplication distributes
        # over addition mod 2**64, so this equals the per-key products.
        total = int((self.bounds[groups + 1] - self.bounds[groups]).sum())
        checksum = int(np.sum(self.sums[groups]
                              * s_payloads[hits].astype(np.uint64),
                              dtype=np.uint64))
        return total, checksum

    def _expand(self, hits, groups, s_payloads
                ) -> Tuple[np.ndarray, np.ndarray]:
        per_s = self.bounds[groups + 1] - self.bounds[groups]
        ends = np.cumsum(per_s)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return np.empty(0, np.uint32), np.empty(0, np.uint32)
        # Output slot j of S tuple i reads sorted R slot
        # bounds[group] + (j - first slot of i): one arange plus one
        # repeated per-S offset, added in place.
        r_idx = np.arange(total)
        r_idx += np.repeat(self.bounds[groups] - (ends - per_s), per_s)
        return self.payloads[r_idx], np.repeat(s_payloads[hits], per_s)

    def stats(self, s_keys: np.ndarray,
              s_payloads: np.ndarray) -> Tuple[int, int]:
        """Exact (count, checksum) of the equi-join with S."""
        return self._stats(*self._lookup(s_keys), s_payloads)

    def expand(self, s_keys: np.ndarray,
               s_payloads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All matching (r_payload, s_payload) pairs, in backend order."""
        return self._expand(*self._lookup(s_keys), s_payloads)

    def emit(self, s_keys: np.ndarray, s_payloads: np.ndarray,
             buffer: JoinOutputBuffer) -> OutputSummary:
        """Join S and feed the output buffer, as :func:`emit_matches`."""
        hits, groups = self._lookup(s_keys)
        return _emit(self._stats(hits, groups, s_payloads),
                     lambda: self._expand(hits, groups, s_payloads), buffer)


def _emit(stats: Tuple[int, int], expand, buffer: JoinOutputBuffer
          ) -> OutputSummary:
    """Feed one join's output to ``buffer``: real pairs from ``expand()``
    while the expansion is small, the closed-form summary beyond
    :data:`MATERIALIZE_LIMIT` (overwrite-on-full semantics discard the
    bulk anyway)."""
    summary = OutputSummary()
    total, checksum = stats
    if total == 0:
        return summary
    if total <= MATERIALIZE_LIMIT:
        buffer.write_pairs(*expand())
    else:
        buffer.count += total
        buffer.checksum = (buffer.checksum + checksum) & _U64_MASK
    summary.add_pairs_sum(total, checksum)
    return summary


def _group_tallies(
    keys: np.ndarray, payloads: np.ndarray
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-key tuple counts and payload sums, tuple-at-a-time."""
    counts: Dict[int, int] = {}
    sums: Dict[int, int] = {}
    for k, p in zip(keys.tolist(), payloads.tolist()):
        counts[k] = counts.get(k, 0) + 1
        sums[k] = sums.get(k, 0) + p
    return counts, sums


def _match_group_stats_scalar(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Literal per-tuple tally of the equi-join count and checksum."""
    if r_keys.size == 0 or s_keys.size == 0:
        return 0, 0
    r_counts, r_sums = _group_tallies(r_keys, r_payloads)
    s_counts, s_sums = _group_tallies(s_keys, s_payloads)
    total = 0
    checksum = 0
    for key, rc in r_counts.items():
        sc = s_counts.get(key)
        if sc is None:
            continue
        total += rc * sc
        checksum += (r_sums[key] & _U64_MASK) * (s_sums[key] & _U64_MASK)
    return total, checksum & _U64_MASK


def _match_group_stats_vector(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Group-wise batch tally of the equi-join count and checksum."""
    return KeyGroupIndex(r_keys, r_payloads).stats(s_keys, s_payloads)


def _s_morsels(n_s: int, pool) -> List[Tuple[int, int]]:
    """Contiguous S-side morsels sized to keep the task queue fed."""
    from repro.cpu.segments import split_segments
    from repro.exec.parallel import MORSELS_PER_WORKER
    return split_segments(n_s, max(pool.n_workers * MORSELS_PER_WORKER, 1))


def _match_group_stats_parallel(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Morsel-parallel tally: R's key-group index + per-S-morsel probes.

    The driver builds the :class:`KeyGroupIndex` of R once, ships its
    keys, counts and payload sums through the arena, and sums per-morsel
    contributions.  Morsel merge order is irrelevant because addition
    mod 2**64 commutes, so the result is bit-identical regardless of
    worker count.
    """
    from repro.exec.parallel import SharedArena, morsel_pool

    pool = morsel_pool(r_keys.size + s_keys.size)
    if pool is None or r_keys.size == 0 or s_keys.size == 0:
        return _match_group_stats_vector(r_keys, r_payloads,
                                         s_keys, s_payloads)
    index = KeyGroupIndex(r_keys, r_payloads)
    with SharedArena(use_shm=pool.uses_processes) as arena:
        task = dict(r_uniq=arena.share(index.keys),
                    r_counts=arena.share(index.counts),
                    r_sums=arena.share(index.sums),
                    s_keys=arena.share(s_keys),
                    s_payloads=arena.share(s_payloads))
        results = pool.run("match_stats", [
            dict(task, a=a, b=b) for (a, b) in _s_morsels(s_keys.size, pool)
        ])
    total = sum(t for t, _c in results)
    checksum = sum(c for _t, c in results)
    return total, checksum & _U64_MASK


def match_group_stats(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[int, int]:
    """Exact (count, checksum) of the equi-join of two tuple sets."""
    impl = dispatch(_match_group_stats_scalar, _match_group_stats_vector,
                    _match_group_stats_parallel)
    return impl(r_keys, r_payloads, s_keys, s_payloads)


def emit_matches(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    buffer: JoinOutputBuffer,
) -> OutputSummary:
    """Join two tuple sets on key equality and feed the output buffer.

    Real pairs are written to the ring while the expansion is small; beyond
    :data:`MATERIALIZE_LIMIT` the buffer receives the closed-form summary
    only.
    """
    return _emit(
        match_group_stats(r_keys, r_payloads, s_keys, s_payloads),
        lambda: expand_pairs(r_keys, r_payloads, s_keys, s_payloads),
        buffer)


def expand_pairs(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize all matching (r_payload, s_payload) pairs.

    All backends emit the pairs in the same order — by S tuple, then by R
    insertion order within the key — so buffer snapshots stay bit-identical.
    """
    impl = dispatch(_expand_pairs_scalar, _expand_pairs_vector,
                    _expand_pairs_parallel)
    return impl(r_keys, r_payloads, s_keys, s_payloads)


def _expand_pairs_scalar(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tuple-at-a-time pair expansion via a per-key payload index."""
    if r_keys.size == 0 or s_keys.size == 0:
        return np.empty(0, np.uint32), np.empty(0, np.uint32)
    by_key: Dict[int, List[int]] = {}
    for k, p in zip(r_keys.tolist(), r_payloads.tolist()):
        by_key.setdefault(k, []).append(p)
    out_r: List[int] = []
    out_s: List[int] = []
    for k, sp in zip(s_keys.tolist(), s_payloads.tolist()):
        group = by_key.get(k)
        if group is None:
            continue
        out_r.extend(group)
        out_s.extend([sp] * len(group))
    return (np.asarray(out_r, dtype=np.uint32),
            np.asarray(out_s, dtype=np.uint32))


def _expand_pairs_vector(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch pair expansion through a one-shot key-group index of R."""
    return KeyGroupIndex(r_keys, r_payloads).expand(s_keys, s_payloads)


def _expand_pairs_parallel(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-round morsel-parallel pair expansion.

    Round 1 counts each S morsel's output; the driver prefix-sums those
    counts into per-morsel output offsets; round 2 writes each morsel's
    pairs into its disjoint slice of the shared output.  Because morsels
    are contiguous S spans and pairs are ordered by S tuple then R
    insertion order, the concatenation equals the vector expansion
    bit for bit.
    """
    from repro.exec.parallel import SharedArena, morsel_pool

    pool = morsel_pool(r_keys.size + s_keys.size)
    if pool is None or r_keys.size == 0 or s_keys.size == 0:
        return _expand_pairs_vector(r_keys, r_payloads, s_keys, s_payloads)
    index = KeyGroupIndex(r_keys, r_payloads)
    morsels = _s_morsels(s_keys.size, pool)
    with SharedArena(use_shm=pool.uses_processes) as arena:
        gk_ref = arena.share(index.keys)
        gs_ref = arena.share(index.bounds[:-1])
        gc_ref = arena.share(index.counts)
        rp_ref = arena.share(index.payloads)
        sk_ref = arena.share(s_keys)
        sp_ref = arena.share(s_payloads)
        counts = pool.run("expand_count", [
            dict(group_keys=gk_ref, group_count=gc_ref, s_keys=sk_ref,
                 a=a, b=b)
            for (a, b) in morsels
        ])
        total = int(sum(counts))
        if total == 0:
            return np.empty(0, np.uint32), np.empty(0, np.uint32)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        out_r, out_r_ref = arena.empty(total, np.uint32)
        out_s, out_s_ref = arena.empty(total, np.uint32)
        pool.run("expand_write", [
            dict(group_keys=gk_ref, group_start=gs_ref, group_count=gc_ref,
                 r_pays_sorted=rp_ref, s_keys=sk_ref, s_payloads=sp_ref,
                 out_r=out_r_ref, out_s=out_s_ref, a=a, b=b,
                 offset=int(offsets[i]))
            for i, (a, b) in enumerate(morsels) if counts[i]
        ])
        if pool.uses_processes:
            return out_r.copy(), out_s.copy()
        return out_r, out_s


def per_key_match_counts(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    """For each query key, how many target tuples share it."""
    impl = dispatch(_per_key_match_counts_scalar, _per_key_match_counts_vector)
    return impl(query_keys, target_keys)


def _per_key_match_counts_scalar(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    if target_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=np.int64)
    counts: Dict[int, int] = {}
    for k in target_keys.tolist():
        counts[k] = counts.get(k, 0) + 1
    out = np.empty(query_keys.size, dtype=np.int64)
    for i, k in enumerate(query_keys.tolist()):
        out[i] = counts.get(k, 0)
    return out


def _per_key_match_counts_vector(
    query_keys: np.ndarray, target_keys: np.ndarray
) -> np.ndarray:
    if target_keys.size == 0 or query_keys.size == 0:
        return np.zeros(query_keys.size, dtype=np.int64)
    t_uniq, t_counts = np.unique(target_keys, return_counts=True)
    pos = np.searchsorted(t_uniq, query_keys)
    pos_clipped = np.minimum(pos, t_uniq.size - 1)
    hit = t_uniq[pos_clipped] == query_keys
    return np.where(hit, t_counts[pos_clipped], 0).astype(np.int64)

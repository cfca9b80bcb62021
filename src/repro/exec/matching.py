"""Key-equality matching helpers shared by CPU and GPU executors.

These compute the exact join output between two tuple sets, group-wise by
key: its count and checksum in closed form, and as real pairs only the
tail that the consumer's ring buffer keeps, so feeding the ring costs
O(min(output, capacity)) however large the output is.  They are the
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

    def _expand(self, hits, groups, s_payloads, skip: int = 0
                ) -> Tuple[np.ndarray, np.ndarray]:
        per_s = self.bounds[groups + 1] - self.bounds[groups]
        # ends[i]: output slots up to and including S tuple i's pairs.
        ends = np.cumsum(per_s)
        total = int(ends[-1]) if ends.size else 0
        if total <= skip:
            return np.empty(0, np.uint32), np.empty(0, np.uint32)
        # The S suffix whose pairs cover slots [skip, total): its first
        # tuple contributes only the slots past `skip`.
        lo = int(np.searchsorted(ends, skip, side="right"))
        groups, hits, ends, per_s = (groups[lo:], hits[lo:], ends[lo:],
                                     per_s[lo:])
        per_s[0] = ends[0] - skip
        # Output slot j of S tuple i reads sorted R slot
        # bounds[group + 1] - (ends[i] - j): one arange plus one repeated
        # per-S offset, added in place.
        r_idx = np.arange(skip, total)
        r_idx += np.repeat(self.bounds[groups + 1] - ends, per_s)
        return self.payloads[r_idx], np.repeat(s_payloads[hits], per_s)

    def stats(self, s_keys: np.ndarray,
              s_payloads: np.ndarray) -> Tuple[int, int]:
        """Exact (count, checksum) of the equi-join with S."""
        return self._stats(*self._lookup(s_keys), s_payloads)

    def expand(self, s_keys: np.ndarray, s_payloads: np.ndarray,
               skip: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The matching (r_payload, s_payload) pairs past the first
        ``skip``, in backend order."""
        return self._expand(*self._lookup(s_keys), s_payloads, skip)

    def emit(self, s_keys: np.ndarray, s_payloads: np.ndarray,
             buffer: JoinOutputBuffer) -> OutputSummary:
        """Join S and feed the output buffer, as :func:`emit_matches`.

        Count and checksum come in closed form; only the last
        ``buffer.capacity`` pairs, all the ring can keep, are expanded.
        """
        hits, groups = self._lookup(s_keys)
        total, checksum = self._stats(hits, groups, s_payloads)
        tail = self._expand(hits, groups, s_payloads,
                            skip=max(total - buffer.capacity, 0))
        buffer.write_pairs(*tail, total=total, checksum=checksum)
        return OutputSummary(total, checksum)


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
                    s_keys=arena.ref(s_keys),
                    s_payloads=arena.ref(s_payloads))
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

    Count and checksum come in closed form from :func:`match_group_stats`;
    only the last ``buffer.capacity`` pairs, all that overwrite-on-full
    lets the ring keep, are materialized by :func:`expand_pairs`.  The
    write costs O(min(output, capacity)), and the ring ends up as if
    every pair had been written.
    """
    total, checksum = match_group_stats(r_keys, r_payloads,
                                        s_keys, s_payloads)
    if total:
        tail = expand_pairs(r_keys, r_payloads, s_keys, s_payloads,
                            skip=max(total - buffer.capacity, 0))
        buffer.write_pairs(*tail, total=total, checksum=checksum)
    return OutputSummary(total, checksum)


def expand_pairs(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    skip: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize the matching (r_payload, s_payload) pairs past the
    first ``skip``.

    All backends emit the pairs in the same order — by S tuple, then by R
    insertion order within the key — so buffer snapshots stay bit-identical.
    The skipped prefix is never built.
    """
    impl = dispatch(_expand_pairs_scalar, _expand_pairs_vector)
    return impl(r_keys, r_payloads, s_keys, s_payloads, skip)


def _expand_pairs_scalar(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    skip: int = 0,
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
        if skip:
            # Whole S groups inside the skipped prefix are passed over;
            # the one it ends in is cut.
            if skip >= len(group):
                skip -= len(group)
                continue
            group, skip = group[skip:], 0
        out_r.extend(group)
        out_s.extend([sp] * len(group))
    return (np.asarray(out_r, dtype=np.uint32),
            np.asarray(out_s, dtype=np.uint32))


def _expand_pairs_vector(
    r_keys: np.ndarray,
    r_payloads: np.ndarray,
    s_keys: np.ndarray,
    s_payloads: np.ndarray,
    skip: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch pair expansion through a one-shot key-group index of R."""
    return KeyGroupIndex(r_keys, r_payloads).expand(s_keys, s_payloads, skip)


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

"""Key-equality matching helpers shared by CPU and GPU executors.

These compute the exact join output between two tuple sets, group-wise by
key: its count and checksum in closed form, and as real pairs only the
tail that the consumer's ring buffer keeps, so feeding the ring costs
O(min(output, capacity)) however large the output is.  They are the
functional core every probe implementation delegates to; operation
*accounting* stays in the callers, which know what the scalar/SIMT
algorithm would have paid.

The batch backends match through a :class:`KeyGroupIndex` of the build
side: its tuples grouped by key hash, with a bucket directory over the
groups, so a probe is a bucket gather and a few hash compares, as in a
chained hash table's probe.  The one-shot functions build one per call;
a caller that probes the same build side many times (cbase-npj's probe
segments, one served request's morsels) builds it once and probes it
directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cpu.hashing import bits_for, bucket_ids, hash_keys
from repro.exec.backend import dispatch
from repro.exec.output import JoinOutputBuffer, OutputSummary

_U64_MASK = (1 << 64) - 1

#: Build sides below this size index their groups with int32.
_INT32_LIMIT = 1 << 31

_NO_MATCHES = np.empty(0, dtype=np.intp)


def lookup_groups(group_hashes: np.ndarray, directory: np.ndarray,
                  s_hashes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(positions of the S tuples whose key has a group, those groups).

    ``group_hashes`` are a :class:`KeyGroupIndex`'s hash-sorted group
    hashes and ``directory`` its bucket directory.  Each S tuple gathers
    its bucket's run ``[directory[b], directory[b + 1])`` of groups; then
    compare rounds walk the runs in lockstep, and a tuple leaves once its
    candidate's hash equals its own, passes it, or the run ends.  There
    are at least as many buckets as groups, so runs are short and most
    tuples settle in the first round.  Equal hash is equal key because
    fmix32 is a bijection on uint32.
    """
    if group_hashes.size == 0 or s_hashes.size == 0:
        return _NO_MATCHES, _NO_MATCHES
    buckets = bucket_ids(s_hashes, (directory.size - 1).bit_length() - 1)
    groups = directory.take(buckets)
    ends = directory.take(buckets + 1)
    # An empty bucket's candidate lies in another bucket (clipped to the
    # last group past the end), so its hash cannot equal the tuple's.
    candidate = group_hashes.take(groups, mode="clip")
    found = candidate == s_hashes
    live = np.flatnonzero((candidate < s_hashes) & (groups + 1 < ends))
    cursor = groups.take(live) + 1
    while live.size:
        candidate = group_hashes.take(cursor)
        want = s_hashes.take(live)
        eq = candidate == want
        settled = live[eq]
        found[settled] = True
        groups[settled] = cursor[eq]
        cursor += 1
        more = (candidate < want) & (cursor < ends.take(live))
        live, cursor = live[more], cursor[more]
    hits = np.flatnonzero(found)
    return hits, groups.take(hits)


def group_stats(bounds: np.ndarray, sums: np.ndarray, hits: np.ndarray,
                groups: np.ndarray, s_payloads: np.ndarray) -> Tuple[int, int]:
    """Exact (count, checksum mod 2**64) of the S tuples ``hits`` matching
    ``groups`` of an index with these group bounds and payload sums."""
    # Per S tuple, r_sum[key] * s_payload: multiplication distributes
    # over addition mod 2**64, so this equals the per-key products.
    total = int((bounds[groups + 1] - bounds[groups]).sum())
    checksum = int(np.sum(sums[groups] * s_payloads[hits].astype(np.uint64),
                          dtype=np.uint64))
    return total, checksum


class KeyGroupIndex:
    """A build side grouped by key hash, probed through a bucket directory.

    One sort of ``fmix32(key) << 32 | row`` groups the build tuples by
    hash; the row in the low bits keeps each group in insertion order, so
    :meth:`expand` emits pairs in the order every backend does: by S
    tuple, then by R insertion order.  fmix32 is a bijection on uint32,
    so one hash is one key and each group is exactly one key's tuples.
    The index keeps each group's hash, its span ``[bounds[g],
    bounds[g + 1])`` in the hash-sorted payloads, its exact payload sum
    mod 2**64, and a directory from the top ``bits_for(n_groups)`` hash
    bits to each bucket's run of groups.  A probe gathers each S tuple's
    bucket and compares hashes (see :func:`lookup_groups`), never
    re-sorting R, so one index can serve any number of probe segments.
    """

    __slots__ = ("hashes", "directory", "bounds", "payloads", "sums")

    def __init__(self, r_keys: np.ndarray, r_payloads: np.ndarray):
        n = r_keys.size
        packed = hash_keys(r_keys).astype(np.uint64) << np.uint64(32)
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort()
        # The low 32 bits are the row, the high 32 bits its hash.
        self.payloads = r_payloads.take(packed.astype(np.uint32))
        sorted_hashes = (packed >> np.uint64(32)).astype(np.uint32)
        del packed
        first = np.ones(n, dtype=bool)
        np.not_equal(sorted_hashes[1:], sorted_hashes[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        index_dtype = np.int32 if n < _INT32_LIMIT else np.int64
        self.hashes = sorted_hashes[starts]
        self.bounds = np.append(starts, n).astype(index_dtype)
        self.sums = np.add.reduceat(self.payloads.astype(np.uint64), starts)
        bits = bits_for(self.hashes.size)
        self.directory = np.zeros((1 << bits) + 1, dtype=index_dtype)
        per_bucket = np.bincount(bucket_ids(self.hashes, bits),
                                 minlength=1 << bits)
        np.cumsum(per_bucket, out=self.directory[1:])

    @property
    def counts(self) -> np.ndarray:
        """Build tuples per key group."""
        return np.diff(self.bounds)

    def _lookup(self, s_keys: np.ndarray, hashes: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """(positions of the matching S tuples, their key groups)."""
        if hashes is None:
            hashes = hash_keys(s_keys)
        return lookup_groups(self.hashes, self.directory, hashes)

    def _stats(self, hits, groups, s_payloads) -> Tuple[int, int]:
        return group_stats(self.bounds, self.sums, hits, groups, s_payloads)

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
        lo = int(np.count_nonzero(ends <= skip))
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
             buffer: JoinOutputBuffer,
             hashes: Optional[np.ndarray] = None) -> OutputSummary:
        """Join S and feed the output buffer.

        ``hashes`` are S's key hashes when the caller already has them.
        Count and checksum come in closed form; only the last
        ``buffer.capacity`` pairs, all that overwrite-on-full lets the
        ring keep, are expanded, so the write costs O(min(output,
        capacity)) and the ring ends up as if every pair had been written.
        """
        hits, groups = self._lookup(s_keys, hashes)
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
    group hashes, directory, bounds and payload sums through the arena,
    and sums per-morsel contributions; each worker hashes its morsel and
    probes with :func:`lookup_groups`, as the vector backend does.
    Morsel merge order is irrelevant because addition mod 2**64
    commutes, so the result is bit-identical regardless of worker count.
    """
    from repro.exec.parallel import SharedArena, morsel_pool

    pool = morsel_pool(r_keys.size + s_keys.size)
    if pool is None or r_keys.size == 0 or s_keys.size == 0:
        return _match_group_stats_vector(r_keys, r_payloads,
                                         s_keys, s_payloads)
    index = KeyGroupIndex(r_keys, r_payloads)
    with SharedArena(use_shm=pool.uses_processes) as arena:
        task = dict(r_hashes=arena.share(index.hashes),
                    r_directory=arena.share(index.directory),
                    r_bounds=arena.share(index.bounds),
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

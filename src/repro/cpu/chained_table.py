"""Chained hash table — the join-phase workhorse of Cbase, cbase-npj, CSH.

The table stores entries in insertion order with an intrusive ``next``
chain per bucket, like the bucket-chained tables in the radix-join code the
paper baselines against.  Two probe implementations are provided:

* :meth:`ChainedHashTable.probe_lockstep` walks chains step by step for all
  probe tuples in lockstep — a literal rendition of the scalar algorithm,
  used at small scale to validate the fast path; and
* :meth:`ChainedHashTable.probe_grouped` computes the *identical* operation
  counts and output summary group-wise (every probe of bucket ``b`` walks
  ``len(chain(b))`` nodes and compares keys at each node; matches per key
  are cartesian products), which keeps Python-side work near-linear even
  under heavy skew.

Both report the same counters, so the cost model cannot tell them apart —
a property the test suite checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cpu.hashing import bits_for, bucket_ids, hash_keys, next_pow2
from repro.errors import CapacityError
from repro.exec.backend import dispatch, is_vector
from repro.exec.cancel import checkpoint
from repro.exec.counters import OpCounters
from repro.exec.matching import emit_matches
from repro.exec.output import JoinOutputBuffer, OutputSummary

_U64_MASK = (1 << 64) - 1

#: Scalar-build entries between cooperative cancellation checkpoints.
_CHECKPOINT_STRIDE = 16384


class ChainedHashTable:
    """A bucket-chained hash table over (key, payload) entries."""

    def __init__(self, n_buckets: int):
        n_buckets = next_pow2(n_buckets)
        self.n_buckets = n_buckets
        self.bucket_bits = bits_for(n_buckets)
        self.heads = np.full(n_buckets, -1, dtype=np.int64)
        self.next = np.empty(0, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.uint32)
        self.payloads = np.empty(0, dtype=np.uint32)
        self._chain_lengths = np.zeros(n_buckets, dtype=np.int64)
        self._built = False

    @property
    def n_entries(self) -> int:
        """Number of stored entries."""
        return int(self.keys.size)

    def _bucket_of(self, hashes: np.ndarray) -> np.ndarray:
        return bucket_ids(hashes, self.bucket_bits)

    def build(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        hashes: Optional[np.ndarray] = None,
        counters: Optional[OpCounters] = None,
        random_access: bool = False,
    ) -> None:
        """Insert all tuples (head insertion, preserving insertion order).

        ``random_access=True`` marks each head update as an uncached random
        memory access (the no-partition join's global table); partitioned
        joins leave it False because their tables are cache resident.
        """
        if self._built:
            raise CapacityError(
                "table already built; create a new table",
                structure="chained-hash-table", state="built",
                n_buckets=self.n_buckets, n_entries=self.n_entries,
            )
        keys = np.asarray(keys, dtype=np.uint32)
        payloads = np.asarray(payloads, dtype=np.uint32)
        n = keys.size
        if hashes is None:
            hashes = hash_keys(keys)
        b = self._bucket_of(hashes)
        checkpoint(structure="chained-hash-table", phase="build")
        if is_vector():
            nxt = self._build_links_parallel(b)
            if nxt is None:
                # Batch link construction: one stable sort recovers, per
                # bucket, the exact head-insertion chain the scalar loop
                # would build.
                order = np.argsort(b, kind="stable")
                sorted_b = b[order]
                nxt = np.full(n, -1, dtype=np.int64)
                if n > 1:
                    same = sorted_b[1:] == sorted_b[:-1]
                    nxt[order[1:][same]] = order[:-1][same]
                if n > 0:
                    is_last = np.empty(n, dtype=bool)
                    is_last[:-1] = sorted_b[:-1] != sorted_b[1:]
                    is_last[-1] = True
                    self.heads[sorted_b[is_last]] = order[is_last]
                    self._chain_lengths = np.bincount(
                        b, minlength=self.n_buckets)
        else:
            # Literal head insertion, one entry at a time; a deadline-
            # bearing request can abandon a huge scalar build between
            # strides instead of hanging to the end.
            nxt = np.full(n, -1, dtype=np.int64)
            heads = self.heads
            chains = self._chain_lengths
            for i, bucket in enumerate(b.tolist()):
                if not i % _CHECKPOINT_STRIDE:
                    checkpoint(structure="chained-hash-table",
                               phase="build", entry=i)
                nxt[i] = heads[bucket]
                heads[bucket] = i
                chains[bucket] += 1
        self.next = nxt
        self.keys = keys.copy()
        self.payloads = payloads.copy()
        self._built = True
        if counters is not None:
            counters.hash_ops += n
            counters.table_inserts += n
            counters.bytes_read += 8 * n
            counters.bytes_written += 12 * n  # entry + head pointer update
            if random_access:
                counters.random_accesses += n

    def _build_links_parallel(self, b: np.ndarray) -> Optional[np.ndarray]:
        """Segmented head-insertion links on the worker pool.

        Each worker builds the local chains of one contiguous segment of
        the build input; the driver then stitches segments together in
        index order (each segment's per-bucket first entry points at the
        previous segment's last entry), which reproduces the sequential
        head-insertion ``next``/``heads`` arrays exactly.  Returns None
        when the pool is not engaged (caller falls through to the
        single-shot vector construction).
        """
        from repro.cpu.segments import split_segments
        from repro.exec.parallel import SharedArena, morsel_pool

        n = b.size
        pool = morsel_pool(n)
        if pool is None:
            return None
        segments = split_segments(n, pool.n_workers)
        with SharedArena(use_shm=pool.uses_processes) as arena:
            b_ref = arena.share(b)
            nxt_view, nxt_ref = arena.empty(n, np.int64)
            nxt_view.fill(-1)
            results = pool.run("chain_links", [
                dict(buckets=b_ref, nxt=nxt_ref, a=a, b=hi)
                for (a, hi) in segments
            ])
            nxt = nxt_view.copy() if pool.uses_processes else nxt_view
        # Stitch: walk segments in index order; a bucket's first entry in
        # a segment chains to its last entry in the previous segments.
        prev_last = np.full(self.n_buckets, -1, dtype=np.int64)
        for uniq, first_idx, last_idx in results:
            if uniq.size == 0:
                continue
            nxt[first_idx] = prev_last[uniq]
            prev_last[uniq] = last_idx
        self.heads[:] = prev_last
        self._chain_lengths = np.bincount(b, minlength=self.n_buckets)
        return nxt

    def chain_length(self, bucket: int) -> int:
        """Entries chained in one bucket."""
        return int(self._chain_lengths[bucket])

    def max_chain_length(self) -> int:
        """Length of the longest bucket chain."""
        if self._chain_lengths.size == 0:
            return 0
        return int(self._chain_lengths.max())

    def probe(
        self,
        s_keys: np.ndarray,
        s_payloads: np.ndarray,
        buffer: JoinOutputBuffer,
        counters: Optional[OpCounters] = None,
        hashes: Optional[np.ndarray] = None,
        random_access: bool = False,
    ) -> OutputSummary:
        """Probe on the ambient backend.

        Vector and parallel select :meth:`probe_grouped` (group-wise batch
        expansion; under the parallel backend its match stats and pair
        expansion fan out over the worker pool), scalar selects
        :meth:`probe_lockstep` (the literal chain walk).  All report
        identical counters and output summaries, so backend choice never
        shows up in results — only in wall time.
        """
        impl = dispatch(self.probe_lockstep, self.probe_grouped)
        return impl(s_keys, s_payloads, buffer, counters=counters,
                    hashes=hashes, random_access=random_access)

    def probe_grouped(
        self,
        s_keys: np.ndarray,
        s_payloads: np.ndarray,
        buffer: JoinOutputBuffer,
        counters: Optional[OpCounters] = None,
        hashes: Optional[np.ndarray] = None,
        random_access: bool = False,
    ) -> OutputSummary:
        """Probe all S tuples; group-wise fast path with exact counters.

        Each probe of bucket ``b`` accounts ``len(chain(b))`` chain steps
        and key compares (a chained-table probe must walk the full chain).
        Matched pairs per key form cartesian products whose count and
        checksum are accumulated in closed form; real pairs are written to
        the ring buffer only while the expansion is small.
        """
        if not self._built:
            raise CapacityError(
                "probe before build",
                structure="chained-hash-table", state="unbuilt",
                n_buckets=self.n_buckets,
            )
        checkpoint(structure="chained-hash-table", phase="probe")
        s_keys = np.asarray(s_keys, dtype=np.uint32)
        s_payloads = np.asarray(s_payloads, dtype=np.uint32)
        ns = s_keys.size
        if hashes is None:
            hashes = hash_keys(s_keys)
        sb = self._bucket_of(hashes)
        steps = int(self._chain_lengths[sb].sum()) if ns else 0
        if counters is not None:
            counters.hash_ops += ns
            counters.seq_tuple_reads += ns
            counters.bytes_read += 8 * ns
            counters.chain_steps += steps
            counters.key_compares += steps
            if random_access:
                counters.random_accesses += steps + ns
        summary = emit_matches(
            self.keys, self.payloads, s_keys, s_payloads, buffer
        )
        if counters is not None:
            counters.output_tuples += summary.count
            counters.bytes_written += 8 * summary.count
        return summary

    def probe_lockstep(
        self,
        s_keys: np.ndarray,
        s_payloads: np.ndarray,
        buffer: JoinOutputBuffer,
        counters: Optional[OpCounters] = None,
        hashes: Optional[np.ndarray] = None,
        random_access: bool = False,
    ) -> OutputSummary:
        """Literal chain walk: all probes advance one chain node per round.

        Produces exactly the same counters and output summary as
        :meth:`probe_grouped` (validated by the test suite); used for
        small-scale verification only.
        """
        if not self._built:
            raise CapacityError(
                "probe before build",
                structure="chained-hash-table", state="unbuilt",
                n_buckets=self.n_buckets,
            )
        s_keys = np.asarray(s_keys, dtype=np.uint32)
        s_payloads = np.asarray(s_payloads, dtype=np.uint32)
        ns = s_keys.size
        if hashes is None:
            hashes = hash_keys(s_keys)
        cursor = (
            self.heads[self._bucket_of(hashes)].copy()
            if ns else np.empty(0, dtype=np.int64)
        )
        active = np.arange(ns)
        summary = OutputSummary()
        steps = 0
        while active.size:
            # One checkpoint per lockstep round: the scalar chain walk is
            # the slowest kernel, and under heavy skew a single morsel's
            # rounds dominate a request — this is where a deadline must
            # be able to fire.
            checkpoint(structure="chained-hash-table", phase="probe",
                       chain_steps=steps)
            alive = cursor[active] != -1
            active = active[alive]
            if active.size == 0:
                break
            cur = cursor[active]
            steps += active.size
            match = self.keys[cur] == s_keys[active]
            if np.any(match):
                r_pay = self.payloads[cur[match]]
                s_pay = s_payloads[active[match]]
                buffer.write_pairs(r_pay, s_pay)
                prod = r_pay.astype(np.uint64) * s_pay.astype(np.uint64)
                summary.add_pairs_sum(int(match.sum()),
                                      int(np.sum(prod, dtype=np.uint64)))
            cursor[active] = self.next[cur]
        if counters is not None:
            counters.hash_ops += ns
            counters.seq_tuple_reads += ns
            counters.bytes_read += 8 * ns
            counters.chain_steps += steps
            counters.key_compares += steps
            counters.output_tuples += summary.count
            counters.bytes_written += 8 * summary.count
            if random_access:
                counters.random_accesses += steps + ns
        return summary

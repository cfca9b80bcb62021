"""Chained hash table — the join-phase workhorse of Cbase, cbase-npj, CSH.

The table stores entries in insertion order with an intrusive ``next``
chain per bucket, like the bucket-chained tables in the radix-join code the
paper baselines against.  Two probe implementations are provided:

* :meth:`ChainedHashTable.probe_lockstep` walks chains step by step for all
  probe tuples in lockstep — a literal rendition of the scalar algorithm,
  used at small scale to validate the fast path; and
* :meth:`ChainedHashTable.probe_grouped` computes the *identical* operation
  counts and output summary group-wise: every probe of bucket ``b`` walks
  ``len(chain(b))`` nodes and compares keys at each node, and the matches
  come from a :class:`~repro.exec.matching.KeyGroupIndex` of the entries
  (one sort by key hash plus a bucket directory, probed with the hashes
  this probe already computed), which keeps Python-side work near-linear
  even under heavy skew.  A caller that probes one table many times
  builds the index once and passes it in.

Only the chain walk reads the ``heads``/``next`` links, so the batch
backends' :meth:`~ChainedHashTable.build` records just the bucket of each
entry and the chain lengths the counters need; the links are derived the
first time something reads them.  Both probes report the same counters,
so the cost model cannot tell them apart — a property the test suite
checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cpu.hashing import bits_for, bucket_ids, hash_keys, next_pow2
from repro.errors import CapacityError
from repro.exec.backend import is_vector
from repro.exec.cancel import checkpoint
from repro.exec.counters import OpCounters
from repro.exec.matching import KeyGroupIndex
from repro.exec.output import JoinOutputBuffer, OutputSummary

#: Scalar-build entries between cooperative cancellation checkpoints.
_CHECKPOINT_STRIDE = 16384


class ChainedHashTable:
    """A bucket-chained hash table over (key, payload) entries."""

    def __init__(self, n_buckets: int):
        n_buckets = next_pow2(n_buckets)
        self.n_buckets = n_buckets
        self.bucket_bits = bits_for(n_buckets)
        self._heads: Optional[np.ndarray] = np.full(n_buckets, -1,
                                                    dtype=np.int64)
        self._next: Optional[np.ndarray] = np.empty(0, dtype=np.int64)
        #: Bucket of each entry, kept by a batch build until linked.
        self._buckets: Optional[np.ndarray] = None
        self.keys = np.empty(0, dtype=np.uint32)
        self.payloads = np.empty(0, dtype=np.uint32)
        self._chain_lengths = np.zeros(n_buckets, dtype=np.int64)
        self._built = False

    @property
    def n_entries(self) -> int:
        """Number of stored entries."""
        return int(self.keys.size)

    @property
    def heads(self) -> np.ndarray:
        """Per bucket, the most recently inserted entry (-1: empty)."""
        if self._heads is None:
            self._link()
        return self._heads

    @property
    def next(self) -> np.ndarray:
        """Per entry, the entry inserted before it in its bucket (-1: none)."""
        if self._next is None:
            self._link()
        return self._next

    def _link(self) -> None:
        """Derive the head-insertion chains a scalar build would leave.

        One stable sort by bucket lists each bucket's entries in insertion
        order: each entry links to its predecessor there, and the bucket's
        last entry is its head.
        """
        b = self._buckets
        n = b.size
        order = np.argsort(b, kind="stable")
        sorted_b = b[order]
        heads = np.full(self.n_buckets, -1, dtype=np.int64)
        nxt = np.full(n, -1, dtype=np.int64)
        if n:
            same = sorted_b[1:] == sorted_b[:-1]
            nxt[order[1:][same]] = order[:-1][same]
            is_last = np.append(~same, True)
            heads[sorted_b[is_last]] = order[is_last]
        self._heads, self._next, self._buckets = heads, nxt, None

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
            # The batch probe reads only chain lengths; the links are
            # derived from the buckets if a chain walk ever asks.
            self._heads = self._next = None
            self._buckets = b
            self._chain_lengths = np.bincount(b, minlength=self.n_buckets)
        else:
            # Literal head insertion, one entry at a time; a deadline-
            # bearing request can abandon a huge scalar build between
            # strides instead of hanging to the end.
            nxt = np.full(n, -1, dtype=np.int64)
            heads = self._heads
            chains = self._chain_lengths
            for i, bucket in enumerate(b.tolist()):
                if not i % _CHECKPOINT_STRIDE:
                    checkpoint(structure="chained-hash-table",
                               phase="build", entry=i)
                nxt[i] = heads[bucket]
                heads[bucket] = i
                chains[bucket] += 1
            self._next = nxt
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
        index: Optional[KeyGroupIndex] = None,
    ) -> OutputSummary:
        """Probe on the ambient backend.

        Vector and parallel select :meth:`probe_grouped` (group-wise
        matching through ``index``, on the driver), scalar selects
        :meth:`probe_lockstep` (the literal chain walk, which needs no
        index).  All report identical counters and output summaries, so
        backend choice never shows up in results — only in wall time.
        """
        if not is_vector():
            return self.probe_lockstep(s_keys, s_payloads, buffer,
                                       counters=counters, hashes=hashes,
                                       random_access=random_access)
        return self.probe_grouped(s_keys, s_payloads, buffer,
                                  counters=counters, hashes=hashes,
                                  random_access=random_access, index=index)

    def probe_grouped(
        self,
        s_keys: np.ndarray,
        s_payloads: np.ndarray,
        buffer: JoinOutputBuffer,
        counters: Optional[OpCounters] = None,
        hashes: Optional[np.ndarray] = None,
        random_access: bool = False,
        index: Optional[KeyGroupIndex] = None,
    ) -> OutputSummary:
        """Probe all S tuples; group-wise fast path with exact counters.

        Each probe of bucket ``b`` accounts ``len(chain(b))`` chain steps
        and key compares (a chained-table probe must walk the full chain).
        Matches come from ``index``, a :class:`KeyGroupIndex` of this
        table's entries; without one, this call builds its own.  The
        ring gets the output's closed-form count and checksum plus real
        pairs for only the last ``buffer.capacity`` slots, so the write
        costs O(min(output, capacity)).
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
        if index is None:
            index = KeyGroupIndex(self.keys, self.payloads)
        summary = index.emit(s_keys, s_payloads, buffer, hashes=hashes)
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

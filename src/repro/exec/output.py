"""Join output buffers.

The paper models a volcano-style consumer of the join output: each CPU
thread (or GPU thread block) owns a fixed-capacity output buffer, and when
the buffer is full it is simply overwritten from the start (Section III).
:class:`JoinOutputBuffer` reproduces that behaviour, while additionally
maintaining two order-independent summaries used for correctness checks:

* ``count`` — the total number of output tuples produced, and
* ``checksum`` — ``sum(r_payload * s_payload) mod 2**64`` over all produced
  pairs.  Because multiplication distributes over addition mod 2**64, the
  checksum of a full cartesian product for one key equals
  ``sum(R payloads) * sum(S payloads)``, so skew-handling fast paths and the
  analytic verifier can compute it without enumerating the pairs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError

_U64_MASK = (1 << 64) - 1

#: Default per-worker output-buffer capacity, in tuples.
DEFAULT_CAPACITY = 65536


class JoinOutputBuffer:
    """Fixed-capacity ring buffer of join output tuples.

    Tuples are (r_payload, s_payload) pairs of ``uint32``.  Writes wrap
    around and overwrite earlier output, exactly like the repeatedly
    overwritten per-thread buffers in the paper's experimental setup.
    The ring allocates as it is written: a new ring holds no storage,
    and its slots grow to ``min(count, capacity)``, so a join that
    creates dozens of rings and fills few of them pays only for the
    pairs it keeps.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ConfigError(f"output buffer capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._r = np.zeros(0, dtype=np.uint32)
        self._s = np.zeros(0, dtype=np.uint32)
        # Reused uint64 scratch for checksum products: write_pairs runs
        # once per probe task, and a fresh temporary per call was a
        # measurable share of its allocation traffic.
        self._prod = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self.count = 0
        self.checksum = 0

    def _pairs_checksum(self, r_payloads: np.ndarray,
                        s_payloads: np.ndarray) -> int:
        """``sum(r * s) mod 2**64``, chunked through the scratch buffer.

        The scratch grows on use to at most ``capacity`` products, and
        oversized writes stream through it in chunks; mod-2**64 addition
        is associative, so the chunked total equals the single-temporary
        result exactly.
        """
        n = int(r_payloads.size)
        chunk = self.capacity
        if self._prod.size < min(n, chunk):
            self._prod = np.empty(min(n, chunk), dtype=np.uint64)
        total = 0
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            scratch = self._prod[:stop - start]
            np.multiply(r_payloads[start:stop], s_payloads[start:stop],
                        out=scratch, dtype=np.uint64)
            total += int(np.sum(scratch, dtype=np.uint64))
        return total & _U64_MASK

    def write_pairs(self, r_payloads: np.ndarray, s_payloads: np.ndarray,
                    total: Optional[int] = None,
                    checksum: Optional[int] = None) -> int:
        """Append matched pairs; returns the number of tuples written.

        ``r_payloads`` and ``s_payloads`` must be equal-length 1-D arrays:
        element ``i`` of each forms one output tuple.

        With ``total`` and ``checksum`` the write is in closed form: they
        summarize a write of ``total`` pairs, and the arrays hold only its
        last pairs.  The cursor advances past the ``total - len(r_payloads)``
        pairs that were never materialized, then the tail is stored, so the
        ring ends up as if every pair had been written.  A caller that
        passes at most ``capacity`` tail pairs pays O(min(output,
        capacity)) for the write, whatever the output size.
        """
        r_payloads = np.asarray(r_payloads, dtype=np.uint32)
        s_payloads = np.asarray(s_payloads, dtype=np.uint32)
        if r_payloads.shape != s_payloads.shape or r_payloads.ndim != 1:
            raise ValueError("payload arrays must be 1-D and of equal length")
        if (total is None) != (checksum is None):
            raise ValueError("total and checksum must be given together")
        if total is None:
            total = int(r_payloads.size)
            checksum = self._pairs_checksum(r_payloads, s_payloads)
        return self._append(r_payloads, s_payloads, total, checksum)

    def write_cartesian(self, r_payloads: np.ndarray, s_payloads: np.ndarray) -> int:
        """Append the full cartesian product R x S of matched payloads.

        This is the skewed-key fast path: the count and checksum are
        computed in closed form, and only the *tail* of the product (the
        last ``capacity`` pairs in row-major order) is materialized into the
        ring, which is all that overwrite-on-full semantics can retain.
        Beyond summing the inputs, a write costs O(min(output, capacity)):
        the tail is cut from the at most ``ceil(keep / ns) + 1`` rows it
        touches.
        """
        r_payloads = np.asarray(r_payloads, dtype=np.uint32).ravel()
        s_payloads = np.asarray(s_payloads, dtype=np.uint32).ravel()
        nr, ns = int(r_payloads.size), int(s_payloads.size)
        total = nr * ns
        if total == 0:
            return 0
        sum_r = int(np.sum(r_payloads, dtype=np.uint64))
        sum_s = int(np.sum(s_payloads, dtype=np.uint64))
        keep = min(total, self.capacity)
        # Row-major tail: the last `keep` pairs of
        # [(r_0,s_0),...,(r_0,s_{ns-1}),(r_1,s_0),...] are the end of row
        # `row` from column `col`, then every later row in full.
        row, col = divmod(total - keep, ns)
        head = ns - col
        tail_r = np.empty(keep, dtype=np.uint32)
        tail_r[:head] = r_payloads[row]
        tail_r[head:] = np.repeat(r_payloads[row + 1:], ns)
        tail_s = np.concatenate((s_payloads[col:],
                                 np.tile(s_payloads, nr - row - 1)))
        return self._append(tail_r, tail_s, total, sum_r * sum_s)

    def _append(self, tail_r: np.ndarray, tail_s: np.ndarray, total: int,
                checksum: int) -> int:
        """Fold in a ``total``-pair write whose last pairs are the tail."""
        if total == 0:
            return 0
        self.checksum = (self.checksum + checksum) & _U64_MASK
        self.count += total
        # Only the last `capacity` pairs survive; the cursor moves past
        # every pair before them, built or not.
        keep = min(int(tail_r.size), self.capacity)
        cut = tail_r.size - keep
        tail_r, tail_s = tail_r[cut:], tail_s[cut:]
        pos = (self._pos + total - keep) % self.capacity
        self._reserve(min(self.count, self.capacity))
        # At most two slice copies: up to the ring's end, then from its
        # start.
        first = min(keep, self.capacity - pos)
        self._r[pos:pos + first] = tail_r[:first]
        self._s[pos:pos + first] = tail_s[:first]
        self._r[:keep - first] = tail_r[first:]
        self._s[:keep - first] = tail_s[first:]
        self._pos = (pos + keep) % self.capacity
        return total

    def _reserve(self, slots: int) -> None:
        """Grow storage to hold ``slots`` slots, doubling up to capacity.

        Slots past the old storage read as zero, as in a ring allocated
        in full: a closed-form write may skip slots it never fills.
        """
        held = self._r.size
        if slots <= held:
            return
        size = min(max(slots, 2 * held), self.capacity)

        def grown(old: np.ndarray) -> np.ndarray:
            new = np.zeros(size, dtype=np.uint32)
            new[:held] = old
            return new

        self._r, self._s = grown(self._r), grown(self._s)

    def snapshot(self) -> np.ndarray:
        """Return the retained tuples as an ``(n, 2)`` array (for tests)."""
        n = min(self.count, self.capacity)
        if n < self.capacity:
            return np.stack([self._r[:n], self._s[:n]], axis=1)
        order = (np.arange(self.capacity) + self._pos) % self.capacity
        return np.stack([self._r[order], self._s[order]], axis=1)

    def merge_summary(self, other: "JoinOutputBuffer") -> None:
        """Fold another buffer's count/checksum into this one (buffers are
        per-worker; totals are aggregated at the end of a join)."""
        self.count += other.count
        self.checksum = (self.checksum + other.checksum) & _U64_MASK


def combine_summaries(buffers) -> "OutputSummary":
    """Aggregate per-worker buffers into one (count, checksum) summary."""
    count = 0
    checksum = 0
    for buf in buffers:
        count += buf.count
        checksum = (checksum + buf.checksum) & _U64_MASK
    return OutputSummary(count=count, checksum=checksum)


class OutputSummary:
    """Order-independent summary of a join's output."""

    __slots__ = ("count", "checksum")

    def __init__(self, count: int = 0, checksum: int = 0):
        self.count = count
        self.checksum = checksum & _U64_MASK

    def add_pairs_sum(self, count: int, checksum_delta: int) -> None:
        """Fold a (count, checksum delta) contribution in."""
        self.count += count
        self.checksum = (self.checksum + checksum_delta) & _U64_MASK

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutputSummary):
            return NotImplemented
        return self.count == other.count and self.checksum == other.checksum

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutputSummary(count={self.count}, checksum={self.checksum:#x})"

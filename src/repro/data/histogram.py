"""Key-frequency histograms.

Histograms are the backbone of the analytic paper-scale path
(:mod:`repro.analysis.analytic`): the exact operation counts of every join
algorithm in this library are functions of the per-key frequencies in R and
S, so a histogram is all that is needed to reproduce the paper's 32 M and
560 M tuple experiments without materializing the tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.relation import Relation
from repro.errors import WorkloadError

_U64_MASK = (1 << 64) - 1


@dataclass
class KeyHistogram:
    """Sorted unique keys with their occurrence counts."""

    keys: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.keys.shape != self.counts.shape or self.keys.ndim != 1:
            raise WorkloadError("histogram keys/counts must be equal-length 1-D")
        if self.keys.size > 1 and not np.all(np.diff(self.keys.astype(np.int64)) > 0):
            order = np.argsort(self.keys, kind="stable")
            self.keys = self.keys[order]
            self.counts = self.counts[order]
            if np.any(np.diff(self.keys.astype(np.int64)) == 0):
                raise WorkloadError("histogram keys must be unique")
        if np.any(self.counts < 0):
            raise WorkloadError("histogram counts must be non-negative")

    @property
    def total(self) -> int:
        """Total number of tuples represented."""
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        """Number of distinct keys."""
        return int(self.keys.size)

    @staticmethod
    def from_relation(rel: Relation) -> "KeyHistogram":
        """Build from a relation's key column."""
        keys, counts = np.unique(rel.keys, return_counts=True)
        return KeyHistogram(keys.astype(np.uint64), counts)

    @staticmethod
    def from_keys(keys: np.ndarray) -> "KeyHistogram":
        """Build from a raw key array."""
        uniq, counts = np.unique(np.asarray(keys), return_counts=True)
        return KeyHistogram(uniq.astype(np.uint64), counts)

    def count_of(self, key: int) -> int:
        """Occurrences of one key (0 if absent)."""
        idx = np.searchsorted(self.keys, np.uint64(key))
        if idx < self.keys.size and self.keys[idx] == np.uint64(key):
            return int(self.counts[idx])
        return 0

    def top_k(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The k most frequent keys and their counts, descending."""
        if k <= 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        k = min(k, self.keys.size)
        order = np.argsort(self.counts, kind="stable")[::-1][:k]
        return self.keys[order], self.counts[order]

    def align_with(self, other: "KeyHistogram") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Intersect two histograms on keys.

        Returns (shared_keys, counts_in_self, counts_in_other).
        """
        shared, idx_self, idx_other = np.intersect1d(
            self.keys, other.keys, assume_unique=True, return_indices=True
        )
        return shared, self.counts[idx_self], other.counts[idx_other]


def join_output_count(hist_r: KeyHistogram, hist_s: KeyHistogram) -> int:
    """Exact equi-join output cardinality: sum over keys of fR(k) * fS(k)."""
    _, cr, cs = hist_r.align_with(hist_s)
    return int(np.sum(cr.astype(object) * cs.astype(object)))


def _payload_sums(rel: Relation):
    """(unique keys, per-key payload sums mod 2**64), exact in uint64."""
    order = np.argsort(rel.keys)
    keys = rel.keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(rel.payloads[order].astype(np.uint64), starts)
    return keys[starts], sums


def join_output_checksum(r: Relation, s: Relation) -> int:
    """Ground-truth checksum: sum over matched pairs of rpay * spay mod 2**64.

    Computed per key in closed form: checksum_k = (sum R payloads with key k)
    * (sum S payloads with key k); works because multiplication distributes
    over addition modulo 2**64.
    """
    r_keys, r_sums = _payload_sums(r)
    s_keys, s_sums = _payload_sums(s)
    shared, idx_r, idx_s = np.intersect1d(
        r_keys, s_keys, assume_unique=True, return_indices=True
    )
    prods = r_sums[idx_r] * s_sums[idx_s]  # wraps mod 2**64, as intended
    checksum = int(np.sum(prods, dtype=np.uint64))
    return checksum & _U64_MASK

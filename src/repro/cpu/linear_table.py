"""Linear-probing hash table for frequency counting.

Both skew detectors use a small open-addressing table to count sampled key
frequencies: CSH "uses a hash table to compute the frequencies of the
sampled keys" before partitioning; GSH "uses a linear probing based hash
table to compute the frequencies of sampled keys" per large partition.

The table counts occurrences per distinct key and reports the probe work
(displacements) the scalar algorithm would pay, so the sampling phase is
priced faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.hashing import bits_for, bucket_ids, hash_keys, next_pow2
from repro.errors import CapacityError
from repro.exec.counters import OpCounters


@dataclass
class FrequencyCount:
    """Distinct keys with sampled occurrence counts, descending by count."""

    keys: np.ndarray
    counts: np.ndarray

    def above_threshold(self, threshold: int) -> np.ndarray:
        """Keys whose sampled frequency meets the threshold."""
        return self.keys[self.counts >= threshold]

    def top_k(self, k: int) -> np.ndarray:
        """The k most frequent sampled keys."""
        return self.keys[:max(k, 0)]


class LinearProbingCounter:
    """Open-addressing (linear probing) key-frequency counter."""

    def __init__(self, capacity: int):
        capacity = next_pow2(max(capacity, 2))
        self.capacity = capacity
        self._mask = capacity - 1
        self._bits = bits_for(capacity)
        self.slot_keys = np.full(capacity, -1, dtype=np.int64)
        self.slot_counts = np.zeros(capacity, dtype=np.int64)

    def insert_all(self, keys: np.ndarray,
                   counters: OpCounters = None) -> FrequencyCount:
        """Count the sampled keys, simulating linear-probe placement.

        Distinct keys are placed by linear probing from their hash slot;
        each sample pays one probe walk to its key's slot.  Raises
        :class:`CapacityError` if the table cannot hold the distinct keys
        at load factor <= 0.75.
        """
        keys = np.asarray(keys, dtype=np.uint32)
        uniq, inv_counts = np.unique(keys, return_counts=True)
        if uniq.size > int(0.75 * self.capacity):
            raise CapacityError(
                f"{uniq.size} distinct sampled keys exceed capacity "
                f"{self.capacity} at load factor 0.75",
                structure="linear-probing-counter",
                capacity=self.capacity,
                observed=int(uniq.size),
                load_factor=0.75,
            )
        home = bucket_ids(hash_keys(uniq), self._bits)
        # Place distinct keys round by round: unresolved keys advance one
        # slot per round, exactly like scalar linear probing (insertion
        # order among colliding keys does not affect counts or total probe
        # work by more than the tie order, which we fix as key order).
        slot = home.copy()
        displacement = np.zeros(uniq.size, dtype=np.int64)
        unresolved = np.arange(uniq.size)
        occupied = np.zeros(self.capacity, dtype=bool)
        owner = np.full(self.capacity, -1, dtype=np.int64)
        rounds = 0
        while unresolved.size:
            rounds += 1
            if rounds > self.capacity + 1:
                raise CapacityError(
                    "linear probing failed to converge",
                    structure="linear-probing-counter",
                    capacity=self.capacity,
                    observed=int(uniq.size),
                    rounds=rounds,
                )
            want = slot[unresolved]
            # Keys wanting a free slot: the lowest-index key per slot wins.
            free = ~occupied[want]
            claim_order = np.argsort(want[free] * (uniq.size + 1)
                                     + unresolved[free], kind="stable")
            claimed = {}
            winners = []
            for j in np.flatnonzero(free)[claim_order]:
                s = int(want[j])
                if s not in claimed:
                    claimed[s] = unresolved[j]
                    winners.append(j)
            win_idx = np.zeros(unresolved.size, dtype=bool)
            win_idx[winners] = True
            placed = unresolved[win_idx]
            occupied[slot[placed]] = True
            owner[slot[placed]] = placed
            rest = unresolved[~win_idx]
            slot[rest] = (slot[rest] + 1) & self._mask
            displacement[rest] += 1
            unresolved = rest
        self.slot_keys[slot] = uniq
        self.slot_counts[slot] = inv_counts
        if counters is not None:
            n = keys.size
            counters.sample_ops += n
            counters.hash_ops += n
            # Every sample walks to its key's final slot.
            per_key_walk = displacement + 1
            counters.chain_steps += int((per_key_walk * inv_counts).sum())
        order = np.argsort(inv_counts, kind="stable")[::-1]
        return FrequencyCount(keys=uniq[order], counts=inv_counts[order])


def count_sample_frequencies(
    sample_keys: np.ndarray,
    counters: OpCounters = None,
    capacity: int = None,
) -> FrequencyCount:
    """Convenience wrapper: size a counter for the sample and run it."""
    sample_keys = np.asarray(sample_keys, dtype=np.uint32)
    if capacity is None:
        capacity = max(4 * max(sample_keys.size, 1), 16)
    table = LinearProbingCounter(capacity)
    return table.insert_all(sample_keys, counters=counters)

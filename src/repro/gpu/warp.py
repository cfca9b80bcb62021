"""Warp-level execution modelling: divergence and lockstep rounds.

All 32 threads of a warp execute in lockstep (SIMT); when threads take
different branch outcomes or loop trip counts, the warp serializes over the
union of paths.  For the chained-table probe this means every round of a
thread block costs as many steps as its *longest* chain, with the other
lanes idling — the paper's "significant code divergence in the probe
procedure" (Section III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class ProbeRounds:
    """Cost shape of a block probing ``n_probes`` tuples in lockstep."""

    rounds: int
    #: Total lockstep steps paid (rounds x per-round longest chain).
    paid_steps: int
    #: Steps actually useful (sum of individual chain lengths).
    useful_steps: int

    @property
    def divergent_steps(self) -> int:
        """Wasted lane-steps: paid lanes minus useful work."""
        return max(self.paid_steps - self.useful_steps, 0)


def lockstep_probe_rounds(
    chain_lengths: np.ndarray, block_threads: int
) -> ProbeRounds:
    """Cost of probing tuples with the given chain lengths, one block.

    Tuples are processed ``block_threads`` at a time; each round runs for as
    many lockstep steps as the longest chain among its tuples, and every
    step is paid by all ``block_threads`` lanes.
    """
    if block_threads <= 0:
        raise ConfigError("block_threads must be positive")
    lengths = np.asarray(chain_lengths, dtype=np.int64)
    n = lengths.size
    if n == 0:
        return ProbeRounds(rounds=0, paid_steps=0, useful_steps=0)
    rounds = math.ceil(n / block_threads)
    pad = rounds * block_threads - n
    padded = np.concatenate([lengths, np.zeros(pad, dtype=np.int64)])
    per_round_max = padded.reshape(rounds, block_threads).max(axis=1)
    paid = int(per_round_max.sum()) * block_threads
    useful = int(lengths.sum())
    return ProbeRounds(rounds=rounds,
                       paid_steps=paid,
                       useful_steps=useful)


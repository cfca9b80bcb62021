"""Integer hashing and radix-bit extraction.

All joins in this library hash 4-byte keys with a murmur3-style finalizer
(fmix32), then carve the hash into bit ranges:

* the *low* bits select radix partitions (pass 1 uses bits ``[0, b1)``,
  pass 2 uses ``[b1, b1+b2)``, skew splitting uses the next bits up), and
* the *high* bits select hash-table buckets inside a partition, so that
  tuples landing in one partition still spread across buckets.

Because every tuple with the same key has the same hash, no amount of radix
refinement can separate same-key tuples — the exact property behind the
paper's observation that partition splitting cannot fix heavy skew.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_FMIX_C1 = np.uint32(0x85EB_CA6B)
_FMIX_C2 = np.uint32(0xC2B2_AE35)


def hash_keys(keys: np.ndarray) -> np.ndarray:
    """Vectorized fmix32 finalizer over a uint32 key array."""
    h = np.asarray(keys, dtype=np.uint32).copy()
    h ^= h >> np.uint32(16)
    h *= _FMIX_C1
    h ^= h >> np.uint32(13)
    h *= _FMIX_C2
    h ^= h >> np.uint32(16)
    return h


def hash_key(key: int) -> int:
    """Scalar convenience wrapper around :func:`hash_keys`."""
    return int(hash_keys(np.asarray([key], dtype=np.uint32))[0])


def _radix_field(hashes: np.ndarray, start_bit: int, n_bits: int,
                 dtype) -> np.ndarray:
    if n_bits < 0 or start_bit < 0 or start_bit + n_bits > 32:
        raise ConfigError(
            f"invalid radix bit range [{start_bit}, {start_bit + n_bits})"
        )
    hashes = np.asarray(hashes, dtype=np.uint32)
    if n_bits == 0:
        return np.zeros(hashes.shape, dtype=dtype)
    mask = np.uint32((1 << n_bits) - 1)
    return ((hashes >> np.uint32(start_bit)) & mask).astype(dtype)


def radix_bits(hashes: np.ndarray, start_bit: int, n_bits: int) -> np.ndarray:
    """Extract ``n_bits`` of each hash starting at ``start_bit`` (LSB = 0)."""
    return _radix_field(hashes, start_bit, n_bits, np.int64)


def radix_ids(hashes: np.ndarray, start_bit: int, n_bits: int) -> np.ndarray:
    """:func:`radix_bits` as the narrowest unsigned type that holds them.

    A partitioning pass is at most 16 bits wide, and numpy's stable sort
    counting-sorts integer types of 16 bits or fewer, so ordering a pass
    by these ids costs linear time instead of a merge sort.
    """
    dtype = np.uint16 if n_bits <= 16 else np.uint32
    return _radix_field(hashes, start_bit, n_bits, dtype)


def bucket_ids(hashes: np.ndarray, bucket_bits: int) -> np.ndarray:
    """Bucket index from the *top* bits of each hash.

    ``bucket_bits == 0`` denotes a single-bucket table: every hash maps
    to bucket 0.
    """
    if bucket_bits < 0 or bucket_bits > 32:
        raise ConfigError(f"bucket_bits must be in 0..32, got {bucket_bits}")
    hashes = np.asarray(hashes, dtype=np.uint32)
    if bucket_bits == 0:
        return np.zeros(hashes.shape, dtype=np.int64)
    shift = np.uint32(32 - bucket_bits)
    return (hashes >> shift).astype(np.int64)


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


def bits_for(n: int) -> int:
    """Number of bits needed to index ``n`` slots (log2 of next_pow2)."""
    return next_pow2(n).bit_length() - 1

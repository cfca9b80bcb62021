"""Tests for hashing and bit-extraction utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.hashing import (
    bits_for,
    bucket_ids,
    hash_key,
    hash_keys,
    next_pow2,
    radix_bits,
    radix_ids,
)
from repro.errors import ConfigError


def test_hash_is_deterministic():
    keys = np.arange(100, dtype=np.uint32)
    assert np.array_equal(hash_keys(keys), hash_keys(keys))


def test_hash_scalar_matches_vector():
    assert hash_key(12345) == int(hash_keys(np.array([12345], np.uint32))[0])


def test_hash_is_bijective_on_sample():
    """fmix32 is a permutation of the 32-bit space: no collisions."""
    keys = np.arange(200000, dtype=np.uint32)
    hashed = hash_keys(keys)
    assert np.unique(hashed).size == keys.size


def test_hash_spreads_low_bits():
    """Sequential keys should spread nearly uniformly over radix bits."""
    keys = np.arange(64000, dtype=np.uint32)
    parts = radix_bits(hash_keys(keys), 0, 6)
    counts = np.bincount(parts, minlength=64)
    assert counts.min() > 0.5 * counts.mean()
    assert counts.max() < 1.5 * counts.mean()


def test_radix_bits_extraction():
    h = np.array([0b1011_0110], dtype=np.uint32)
    assert radix_bits(h, 0, 3)[0] == 0b110
    assert radix_bits(h, 3, 3)[0] == 0b110
    assert radix_bits(h, 0, 0)[0] == 0


def test_radix_bits_rejects_bad_range():
    h = np.zeros(1, np.uint32)
    with pytest.raises(ConfigError):
        radix_bits(h, 30, 4)
    with pytest.raises(ConfigError):
        radix_bits(h, -1, 2)


@pytest.mark.parametrize("start_bit,n_bits,dtype", [
    (0, 0, np.uint16), (0, 9, np.uint16), (16, 16, np.uint16),
    (3, 17, np.uint32), (0, 32, np.uint32),
])
def test_radix_ids_are_radix_bits_in_the_narrowest_type(start_bit, n_bits,
                                                        dtype):
    # Ids of a pass up to 16 bits wide are uint16, which numpy's stable
    # sort orders by counting sort; analytic pricing keeps radix_bits'
    # int64 for its shifted pass-1 ids.
    h = hash_keys(np.arange(5000, dtype=np.uint32))
    ids = radix_ids(h, start_bit, n_bits)
    assert ids.dtype == dtype
    assert np.array_equal(ids, radix_bits(h, start_bit, n_bits))
    assert radix_bits(h, start_bit, n_bits).dtype == np.int64
    with pytest.raises(ConfigError):
        radix_ids(h, 30, 4)


def test_bucket_ids_use_top_bits():
    h = np.array([0xF0000000, 0x10000000], dtype=np.uint32)
    assert bucket_ids(h, 4).tolist() == [0xF, 0x1]
    assert bucket_ids(h, 0).tolist() == [0, 0]  # single-bucket table
    with pytest.raises(ConfigError):
        bucket_ids(h, 33)


def test_partition_and_bucket_bits_are_disjoint():
    """Same partition id must not force the same bucket id."""
    keys = np.arange(10000, dtype=np.uint32)
    h = hash_keys(keys)
    parts = radix_bits(h, 0, 4)
    in_part0 = h[parts == 0]
    buckets = bucket_ids(in_part0, 8)
    assert np.unique(buckets).size > 100


def test_next_pow2():
    assert next_pow2(0) == 1
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(1024) == 1024
    assert next_pow2(1025) == 2048


def test_bits_for():
    assert bits_for(1) == 0
    assert bits_for(2) == 1
    assert bits_for(1024) == 10
    assert bits_for(1000) == 10


@given(st.integers(1, 2**30))
@settings(max_examples=50)
def test_next_pow2_properties(n):
    p = next_pow2(n)
    assert p >= n
    assert p & (p - 1) == 0
    assert p < 2 * n or n == 0

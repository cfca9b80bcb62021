"""Tests for the shared key-matching helpers."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.exec.matching import (
    KeyGroupIndex,
    expand_pairs,
    match_group_stats,
)
from repro.exec.output import JoinOutputBuffer

U64 = (1 << 64) - 1


def brute_force(r_keys, r_pays, s_keys, s_pays):
    count = 0
    checksum = 0
    pairs = []
    for rk, rp in zip(r_keys, r_pays):
        for sk, sp in zip(s_keys, s_pays):
            if rk == sk:
                count += 1
                checksum = (checksum + int(rp) * int(sp)) & U64
                pairs.append((int(rp), int(sp)))
    return count, checksum, pairs


small_rel = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 1000)), min_size=0, max_size=30
)


@given(small_rel, small_rel)
@settings(max_examples=120)
def test_match_group_stats_matches_brute_force(r_list, s_list):
    rk = np.array([t[0] for t in r_list], dtype=np.uint32)
    rp = np.array([t[1] for t in r_list], dtype=np.uint32)
    sk = np.array([t[0] for t in s_list], dtype=np.uint32)
    sp = np.array([t[1] for t in s_list], dtype=np.uint32)
    count, checksum, _ = brute_force(rk, rp, sk, sp)
    got_count, got_checksum = match_group_stats(rk, rp, sk, sp)
    assert got_count == count
    assert got_checksum == checksum


@given(small_rel, small_rel)
@settings(max_examples=120)
def test_expand_pairs_matches_brute_force_multiset(r_list, s_list):
    rk = np.array([t[0] for t in r_list], dtype=np.uint32)
    rp = np.array([t[1] for t in r_list], dtype=np.uint32)
    sk = np.array([t[0] for t in s_list], dtype=np.uint32)
    sp = np.array([t[1] for t in s_list], dtype=np.uint32)
    _, _, pairs = brute_force(rk, rp, sk, sp)
    er, es = expand_pairs(rk, rp, sk, sp)
    got = sorted(zip(er.tolist(), es.tolist()))
    assert got == sorted(pairs)


@given(small_rel, small_rel)
@settings(max_examples=80)
def test_index_emit_summary(r_list, s_list):
    rk = np.array([t[0] for t in r_list], dtype=np.uint32)
    rp = np.array([t[1] for t in r_list], dtype=np.uint32)
    sk = np.array([t[0] for t in s_list], dtype=np.uint32)
    sp = np.array([t[1] for t in s_list], dtype=np.uint32)
    count, checksum, _ = brute_force(rk, rp, sk, sp)
    buf = JoinOutputBuffer(1 << 12)
    summary = KeyGroupIndex(rk, rp).emit(sk, sp, buf)
    assert summary.count == count == buf.count
    assert summary.checksum == checksum == buf.checksum


def test_index_emit_large_group_fills_the_ring():
    """Above 2**21 pairs (an earlier summary-only cut-off) the ring holds
    the last pairs, exactly as if the whole expansion had been written."""
    n = 1 << 11  # n*n = 4M pairs
    rk = np.zeros(n, dtype=np.uint32)
    rp = np.arange(n, dtype=np.uint32)
    sk = np.zeros(n, dtype=np.uint32)
    sp = np.full(n, 2, dtype=np.uint32)
    buf = JoinOutputBuffer(16)
    summary = KeyGroupIndex(rk, rp).emit(sk, sp, buf)
    checksum = (n * (n * (n - 1) // 2) * 2) & U64
    assert (summary.count, summary.checksum) == (n * n, checksum)
    assert (buf.count, buf.checksum) == (n * n, checksum)
    full = JoinOutputBuffer(16)
    full.write_pairs(np.tile(rp, n), np.repeat(sp, n))
    assert np.array_equal(buf.snapshot(), full.snapshot())
    assert buf.snapshot().tolist() == [[r, 2] for r in range(2032, 2048)]

"""Tail-only ring writes: a closed-form write that materializes only the
pairs the ring keeps must leave the ring exactly as writing every pair.

The oracle is always a fresh :class:`JoinOutputBuffer` fed the full
expansion — :func:`_expand_pairs_scalar` for equi-joins, the row-major
product for cartesian writes — after the same pre-fill.  Snapshot,
count, checksum and cursor must be bit-identical.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec.backend import BACKENDS, use_backend
from repro.exec.matching import (
    KeyGroupIndex,
    _expand_pairs_scalar,
    expand_pairs,
    match_group_stats,
)
from repro.exec.output import JoinOutputBuffer

MAX_U32 = (1 << 32) - 1

#: Few keys, so groups repeat and totals reach past small capacities.
keys = st.sampled_from([0, 3, 9, MAX_U32])
side = st.lists(st.tuples(keys, st.integers(0, MAX_U32)), max_size=24)

#: A capacity relative to the write's total, or an absolute small one.
capacity_choice = st.one_of(st.sampled_from(["total-1", "total",
                                             "total+1"]),
                            st.integers(1, 12))

_SETTINGS = settings(max_examples=120, deadline=None,
                     suppress_health_check=[
                         HealthCheck.function_scoped_fixture])


def cols(pairs):
    return (np.array([k for k, _ in pairs], dtype=np.uint32),
            np.array([p for _, p in pairs], dtype=np.uint32))


def pick_capacity(choice, total: int) -> int:
    if isinstance(choice, int):
        return choice
    return max(total + {"total-1": -1, "total": 0, "total+1": 1}[choice], 1)


def prefilled(capacity: int, prefill: int) -> JoinOutputBuffer:
    """A ring after ``prefill`` one-pair writes: the cursor sits mid-way."""
    buf = JoinOutputBuffer(capacity)
    for i in range(prefill):
        buf.write_pairs(np.array([i], np.uint32),
                        np.array([i + 1000], np.uint32))
    return buf


def assert_same_ring(got: JoinOutputBuffer, want: JoinOutputBuffer):
    assert (got.count, got.checksum, got._pos) == (want.count,
                                                   want.checksum, want._pos)
    assert np.array_equal(got.snapshot(), want.snapshot())


def equi_join_case(r_pairs, s_pairs, choice, prefill):
    rk, rp = cols(r_pairs)
    sk, sp = cols(s_pairs)
    full = _expand_pairs_scalar(rk, rp, sk, sp)
    capacity = pick_capacity(choice, int(full[0].size))
    want = prefilled(capacity, prefill)
    want.write_pairs(*full)
    return (rk, rp, sk, sp), capacity, want


@given(side, side, capacity_choice, st.integers(0, 20))
@_SETTINGS
def test_index_emit_writes_what_the_full_expansion_leaves(
        r_pairs, s_pairs, choice, prefill):
    (rk, rp, sk, sp), capacity, want = equi_join_case(
        r_pairs, s_pairs, choice, prefill)
    got = prefilled(capacity, prefill)
    before = (got.count, got.checksum)
    summary = KeyGroupIndex(rk, rp).emit(sk, sp, got)
    assert (summary.count, summary.checksum) == (
        want.count - before[0], (want.checksum - before[1]) % (1 << 64))
    assert_same_ring(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
@given(r_pairs=side, s_pairs=side, choice=capacity_choice,
       prefill=st.integers(0, 20))
@_SETTINGS
def test_emit_matches_writes_what_the_full_expansion_leaves(
        backend, parallel_pool_env, r_pairs, s_pairs, choice, prefill):
    # The emit-matches write on the backend-dispatched pieces: count and
    # checksum from match_group_stats, only the ring's tail expanded.
    (rk, rp, sk, sp), capacity, want = equi_join_case(
        r_pairs, s_pairs, choice, prefill)
    got = prefilled(capacity, prefill)
    with use_backend(backend):
        total, checksum = match_group_stats(rk, rp, sk, sp)
        tail = expand_pairs(rk, rp, sk, sp,
                            skip=max(total - got.capacity, 0))
    got.write_pairs(*tail, total=total, checksum=checksum)
    assert total == want.count - prefill
    assert_same_ring(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
@given(r_pairs=side, s_pairs=side, capacity=st.integers(1, 12))
@_SETTINGS
def test_expand_pairs_tail_fits_the_ring(backend, parallel_pool_env,
                                         r_pairs, s_pairs, capacity):
    rk, rp = cols(r_pairs)
    sk, sp = cols(s_pairs)
    full_r, full_s = _expand_pairs_scalar(rk, rp, sk, sp)
    skip = max(int(full_r.size) - capacity, 0)
    with use_backend(backend):
        tail_r, tail_s = expand_pairs(rk, rp, sk, sp, skip=skip)
    assert tail_r.size <= capacity
    assert tail_r.tolist() == full_r[skip:].tolist()
    assert tail_s.tolist() == full_s[skip:].tolist()


payloads = st.lists(st.integers(0, MAX_U32), max_size=12)


@given(st.one_of(payloads, st.lists(st.integers(0, MAX_U32), min_size=1,
                                    max_size=1)),
       st.one_of(payloads, st.lists(st.integers(0, MAX_U32), min_size=13,
                                    max_size=40)),
       capacity_choice, st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_write_cartesian_writes_the_row_major_product(r_list, s_list,
                                                      choice, prefill):
    # Draws cover nr = 1, ns above every drawn absolute capacity, and
    # tails that start mid-row and cross row boundaries.
    r = np.array(r_list, dtype=np.uint32)
    s = np.array(s_list, dtype=np.uint32)
    capacity = pick_capacity(choice, r.size * s.size)
    want = prefilled(capacity, prefill)
    want.write_pairs(np.repeat(r, s.size), np.tile(s, r.size))
    got = prefilled(capacity, prefill)
    assert got.write_cartesian(r, s) == r.size * s.size
    assert_same_ring(got, want)


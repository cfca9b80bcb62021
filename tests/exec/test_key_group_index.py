"""KeyGroupIndex: equivalence with the literal per-tuple matchers and a
sorted-key reference lookup, the fmix32 bijection its hash compares rely
on, the chained table's lazily derived links, and one index per
cbase-npj join."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import make_join
from repro.cpu.chained_table import ChainedHashTable
from repro.cpu.hashing import bits_for, hash_key, hash_keys
from repro.data.zipf import ZipfWorkload
from repro.exec.backend import use_backend
from repro.exec.matching import (
    KeyGroupIndex,
    _expand_pairs_scalar,
    _match_group_stats_scalar,
)
from repro.exec.output import JoinOutputBuffer

MAX_KEY = (1 << 32) - 1


def _inverse_mod_2_32(c: int) -> np.uint32:
    return np.uint32(pow(c, -1, 1 << 32))


def unfmix32(hashes) -> np.ndarray:
    """The inverse of fmix32: undo each step of the finalizer in reverse."""
    h = np.asarray(hashes, dtype=np.uint32).copy()
    h ^= h >> np.uint32(16)
    h *= _inverse_mod_2_32(0xC2B2_AE35)
    h ^= (h >> np.uint32(13)) ^ (h >> np.uint32(26))
    h *= _inverse_mod_2_32(0x85EB_CA6B)
    h ^= h >> np.uint32(16)
    return h


def key_of_hash(h: int) -> int:
    return int(unfmix32([h])[0])


#: Keys whose hashes share their top 12 bits: one directory bucket for
#: any index of up to 4096 groups.
CROWDED = [key_of_hash((0xABC << 20) | low) for low in (0, 1, 5, 0xFFFFF)]

#: A small key pool so groups repeat, with both ends of the uint32 range
#: and several distinct keys in one bucket.
keys = st.sampled_from([0, 1, 2, 7, 1 << 31, MAX_KEY] + CROWDED)
u32 = st.integers(0, MAX_KEY)
side = st.lists(st.tuples(keys, u32), max_size=40)


def cols(pairs, payload_dtype=np.uint32):
    return (np.array([k for k, _ in pairs], dtype=np.uint32),
            np.array([p for _, p in pairs], dtype=payload_dtype))


@given(side, side)
@settings(max_examples=150, deadline=None)
@example([], [(1, 5)])
@example([(1, 5)], [])
@example([(MAX_KEY, MAX_KEY)] * 3, [(MAX_KEY, MAX_KEY)] * 4)
def test_index_matches_the_scalar_matchers(r_pairs, s_pairs):
    rk, rp = cols(r_pairs)
    sk, sp = cols(s_pairs)
    index = KeyGroupIndex(rk, rp)
    assert index.stats(sk, sp) == _match_group_stats_scalar(rk, rp, sk, sp)
    want_r, want_s = _expand_pairs_scalar(rk, rp, sk, sp)
    got_r, got_s = index.expand(sk, sp)
    # Same pairs in the same order: by S tuple, then R insertion order.
    assert got_r.tolist() == want_r.tolist()
    assert got_s.tolist() == want_s.tolist()

    got_buf, want_buf = JoinOutputBuffer(64), JoinOutputBuffer(64)
    summary = index.emit(sk, sp, got_buf)
    want_buf.write_pairs(want_r, want_s)
    assert (summary.count, summary.checksum) == (want_buf.count,
                                                 want_buf.checksum)
    assert (got_buf.count, got_buf.checksum) == (want_buf.count,
                                                 want_buf.checksum)
    assert np.array_equal(got_buf.snapshot(), want_buf.snapshot())


@given(st.lists(st.integers(0, MAX_KEY), max_size=200))
@settings(max_examples=100, deadline=None)
@example([0, 1, MAX_KEY, 1 << 31])
def test_fmix32_is_a_bijection(extra):
    # KeyGroupIndex compares hashes, not keys: that is exact only because
    # fmix32 has an inverse on uint32.
    edge = [0, 1, MAX_KEY, 1 << 31, MAX_KEY - 1]
    k = np.array(edge + extra, dtype=np.uint32)
    assert np.array_equal(unfmix32(hash_keys(k)), k)
    assert np.array_equal(hash_keys(unfmix32(k)), k)


def reference_lookup(rk, sk):
    """(matching S positions, their keys) by binary search over R's
    sorted unique keys."""
    uniq = np.unique(rk)
    if uniq.size == 0 or sk.size == 0:
        return [], []
    pos = np.minimum(np.searchsorted(uniq, sk), uniq.size - 1)
    hits = np.flatnonzero(uniq[pos] == sk)
    return hits.tolist(), uniq[pos[hits]].tolist()


#: A wider pool for lookups: both uint32 ends, the hashes 0 and 2**32-1,
#: crowded buckets, and arbitrary keys.
lookup_keys = st.one_of(
    st.sampled_from([0, MAX_KEY, key_of_hash(0), key_of_hash(MAX_KEY)]
                    + CROWDED),
    st.integers(0, (1 << 20) - 1).map(
        lambda low: key_of_hash((0x5 << 28) | low)),
    u32,
)


@given(st.lists(lookup_keys, max_size=60), st.lists(lookup_keys, max_size=60))
@settings(max_examples=200, deadline=None)
@example([], [1, 2])
@example([1, 2], [])
@example([7] * 5, [7, 7, 8])
@example([MAX_KEY] * 3, [0, MAX_KEY])
@example(CROWDED * 2, CROWDED[::-1] + [0])
def test_directory_lookup_equals_a_searchsorted_reference(r_keys, s_keys):
    rk = np.array(r_keys, dtype=np.uint32)
    sk = np.array(s_keys, dtype=np.uint32)
    index = KeyGroupIndex(rk, np.arange(rk.size, dtype=np.uint32))
    n_groups = np.unique(rk).size
    assert index.hashes.size == n_groups
    assert index.directory.size == (1 << bits_for(n_groups)) + 1
    hits, groups = index._lookup(sk)
    got_keys = unfmix32(index.hashes[groups]).tolist()
    assert (hits.tolist(), got_keys) == reference_lookup(rk, sk)


def test_one_group_index_has_a_one_bucket_directory():
    index = KeyGroupIndex(np.full(4, MAX_KEY, np.uint32),
                          np.arange(4, dtype=np.uint32))
    assert index.directory.tolist() == [0, 1]
    hits, groups = index._lookup(np.array([MAX_KEY, 0, MAX_KEY], np.uint32))
    assert hits.tolist() == [0, 2]
    assert groups.tolist() == [0, 0]


@given(st.lists(st.tuples(keys, st.integers(1 << 63, (1 << 64) - 1)),
                max_size=30),
       side)
@settings(max_examples=80, deadline=None)
def test_payload_sums_wrap_exactly_past_2_64(r_pairs, s_pairs):
    # uint64 payloads this large overflow a group's sum on the second
    # tuple; the index must agree with the Python-int tally mod 2**64.
    rk, rp = cols(r_pairs, np.uint64)
    sk, sp = cols(s_pairs)
    got = KeyGroupIndex(rk, rp).stats(sk, sp)
    assert got == _match_group_stats_scalar(rk, rp, sk, sp)


def test_duplicates_only_sides_form_one_group():
    rk = np.full(5, 3, dtype=np.uint32)
    rp = np.arange(5, dtype=np.uint32)
    index = KeyGroupIndex(rk, rp)
    assert index.hashes.tolist() == [hash_key(3)]
    assert index.bounds.tolist() == [0, 5]
    assert index.counts.tolist() == [5]
    assert index.sums.tolist() == [10]
    r_out, s_out = index.expand(np.array([3, 4, 3], np.uint32),
                                np.array([7, 8, 9], np.uint32))
    assert r_out.tolist() == [0, 1, 2, 3, 4] * 2
    assert s_out.tolist() == [7] * 5 + [9] * 5


def test_totals_above_the_old_materialize_limit_fill_the_ring():
    # 2**22 pairs, twice the 2**21 above which an earlier emit stored
    # no pairs at all: the ring must hold what overwrite-on-full leaves.
    n = 1 << 11
    rk = np.full(n, MAX_KEY, dtype=np.uint32)
    rp = np.arange(n, dtype=np.uint32)
    sk = np.full(n, MAX_KEY, dtype=np.uint32)
    sp = np.full(n, MAX_KEY, dtype=np.uint32)
    buf = JoinOutputBuffer(16)
    summary = KeyGroupIndex(rk, rp).emit(sk, sp, buf)
    want = _match_group_stats_scalar(rk, rp, sk, sp)
    assert (summary.count, summary.checksum) == want
    assert (buf.count, buf.checksum) == want
    full = JoinOutputBuffer(16)
    full.write_pairs(*_expand_pairs_scalar(rk, rp, sk, sp))
    assert np.array_equal(buf.snapshot(), full.snapshot())
    assert buf.snapshot().tolist() == [[r, MAX_KEY] for r in range(2032, 2048)]


@given(st.lists(st.tuples(st.integers(0, 40), u32), max_size=80),
       st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_lazy_links_equal_the_scalar_build(pairs, bucket_bits):
    rk, rp = cols(pairs)
    with use_backend("scalar"):
        scalar = ChainedHashTable(1 << bucket_bits)
        scalar.build(rk, rp)
    with use_backend("vector"):
        vector = ChainedHashTable(1 << bucket_bits)
        vector.build(rk, rp)
    assert vector._heads is None and vector._next is None
    assert np.array_equal(vector.heads, scalar.heads)
    assert np.array_equal(vector.next, scalar.next)
    assert np.array_equal(vector._chain_lengths, scalar._chain_lengths)


@pytest.mark.parametrize("backend", ["vector", "parallel"])
def test_cbase_npj_builds_one_index_per_join(monkeypatch, backend):
    join_input = ZipfWorkload(4096, 8192, 1.0, seed=3).generate()
    built = []
    init = KeyGroupIndex.__init__

    def counting_init(self, *args):
        built.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(KeyGroupIndex, "__init__", counting_init)
    with use_backend(backend):
        result = make_join("cbase-npj").run(join_input)
    assert built == [4096]
    monkeypatch.undo()
    with use_backend("scalar"):
        reference = make_join("cbase-npj").run(join_input)
    assert (result.output_count, result.output_checksum,
            result.simulated_seconds) == (reference.output_count,
                                          reference.output_checksum,
                                          reference.simulated_seconds)

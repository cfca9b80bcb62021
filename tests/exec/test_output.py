"""Tests for the ring output buffer and its closed-form checksums."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ALGORITHMS, make_join
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError
from repro.exec.backend import use_backend
from repro.exec.output import JoinOutputBuffer, OutputSummary, combine_summaries

U64 = (1 << 64) - 1


def reference_checksum(r, s):
    return int(sum((int(a) * int(b)) & U64 for a, b in zip(r, s)) & U64)


def test_rejects_non_positive_capacity():
    with pytest.raises(ConfigError):
        JoinOutputBuffer(0)


def test_write_pairs_counts_and_checksums():
    buf = JoinOutputBuffer(16)
    r = np.array([1, 2, 3], dtype=np.uint32)
    s = np.array([4, 5, 6], dtype=np.uint32)
    assert buf.write_pairs(r, s) == 3
    assert buf.count == 3
    assert buf.checksum == 1 * 4 + 2 * 5 + 3 * 6


def test_write_pairs_rejects_mismatched_shapes():
    buf = JoinOutputBuffer(4)
    with pytest.raises(ValueError):
        buf.write_pairs(np.zeros(2, np.uint32), np.zeros(3, np.uint32))


def test_ring_overwrite_keeps_last_capacity_tuples():
    buf = JoinOutputBuffer(4)
    r = np.arange(10, dtype=np.uint32)
    buf.write_pairs(r, r)
    assert buf.count == 10
    snap = buf.snapshot()
    assert snap.shape == (4, 2)
    assert sorted(snap[:, 0].tolist()) == [6, 7, 8, 9]


def test_incremental_writes_wrap_consistently():
    buf = JoinOutputBuffer(4)
    for i in range(7):
        buf.write_pairs(np.array([i], np.uint32), np.array([i], np.uint32))
    snap = buf.snapshot()
    assert sorted(snap[:, 0].tolist()) == [3, 4, 5, 6]


def test_cartesian_matches_explicit_pairs():
    r = np.array([3, 5], dtype=np.uint32)
    s = np.array([7, 11, 13], dtype=np.uint32)
    a = JoinOutputBuffer(64)
    a.write_cartesian(r, s)
    b = JoinOutputBuffer(64)
    rr = np.repeat(r, s.size)
    ss = np.tile(s, r.size)
    b.write_pairs(rr, ss)
    assert a.count == b.count == 6
    assert a.checksum == b.checksum
    assert sorted(map(tuple, a.snapshot().tolist())) == sorted(
        map(tuple, b.snapshot().tolist()))


def test_cartesian_overflowing_ring_keeps_tail():
    r = np.arange(1, 4, dtype=np.uint32)      # 3 R tuples
    s = np.arange(10, 15, dtype=np.uint32)    # 5 S tuples -> 15 pairs
    buf = JoinOutputBuffer(4)
    buf.write_cartesian(r, s)
    assert buf.count == 15
    snap = buf.snapshot()
    # Last 4 pairs in row-major order: (3,11),(3,12),(3,13),(3,14)
    assert sorted(map(tuple, snap.tolist())) == [
        (3, 11), (3, 12), (3, 13), (3, 14)
    ]


def test_empty_writes_are_noops():
    buf = JoinOutputBuffer(4)
    assert buf.write_pairs(np.empty(0, np.uint32), np.empty(0, np.uint32)) == 0
    assert buf.write_cartesian(np.empty(0, np.uint32),
                               np.arange(3, dtype=np.uint32)) == 0
    assert buf.count == 0 and buf.checksum == 0


def test_merge_and_combine_summaries():
    a = JoinOutputBuffer(4)
    b = JoinOutputBuffer(4)
    a.write_pairs(np.array([2], np.uint32), np.array([3], np.uint32))
    b.write_pairs(np.array([5], np.uint32), np.array([7], np.uint32))
    combined = combine_summaries([a, b])
    assert combined.count == 2
    assert combined.checksum == 2 * 3 + 5 * 7
    a.merge_summary(b)
    assert a.count == 2 and a.checksum == combined.checksum


def test_output_summary_equality():
    assert OutputSummary(1, 2) == OutputSummary(1, 2)
    assert OutputSummary(1, 2) != OutputSummary(1, 3)


@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=40),
    st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=40),
)
@settings(max_examples=60)
def test_cartesian_checksum_closed_form(r_list, s_list):
    """(sum r)(sum s) mod 2^64 == sum over pairs r*s mod 2^64."""
    r = np.array(r_list, dtype=np.uint32)
    s = np.array(s_list, dtype=np.uint32)
    buf = JoinOutputBuffer(8)
    buf.write_cartesian(r, s)
    expect = (sum(map(int, r_list)) * sum(map(int, s_list))) & U64
    assert buf.checksum == expect
    assert buf.count == len(r_list) * len(s_list)


@given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                          st.integers(0, 2**32 - 1)),
                min_size=1, max_size=200),
       st.integers(1, 16))
@settings(max_examples=40)
def test_ring_retains_exactly_last_capacity(pairs, capacity):
    buf = JoinOutputBuffer(capacity)
    r = np.array([p[0] for p in pairs], dtype=np.uint32)
    s = np.array([p[1] for p in pairs], dtype=np.uint32)
    buf.write_pairs(r, s)
    keep = min(len(pairs), capacity)
    snap = buf.snapshot()
    assert snap.shape[0] == keep
    assert sorted(map(tuple, snap.tolist())) == sorted(
        (int(a), int(b)) for a, b in pairs[-keep:]
    )
    assert buf.checksum == reference_checksum(r, s)


def test_oversized_write_chunks_through_scratch():
    """Writes larger than capacity stream through the reused scratch in
    capacity-sized chunks; the chunked checksum must equal the direct one."""
    buf = JoinOutputBuffer(8)
    rng = np.random.default_rng(7)
    r = rng.integers(0, 2**32, size=100, dtype=np.uint32)
    s = rng.integers(0, 2**32, size=100, dtype=np.uint32)
    assert buf.write_pairs(r, s) == 100
    assert buf.count == 100
    assert buf.checksum == reference_checksum(r, s)
    assert buf._prod.size == buf.capacity  # scratch never grows


def test_scratch_reuse_keeps_repeat_writes_exact():
    buf = JoinOutputBuffer(16)
    a = np.arange(1, 6, dtype=np.uint32)
    expected = 0
    for _ in range(3):
        buf.write_pairs(a, a)
        expected = (expected + reference_checksum(a, a)) & U64
    assert buf.checksum == expected


class EagerRing:
    """The ring with all its storage up front: one zeroed slot per unit of
    capacity, written one pair at a time.  A sized write's cursor first
    skips the pairs it did not materialize, whose slots keep their old
    contents (zero if never written); a write of no pairs is a no-op."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots = np.zeros((capacity, 2), dtype=np.uint32)
        self.pos = self.count = self.checksum = 0

    def write(self, pairs, total: int, checksum: int) -> None:
        if total == 0:
            return
        self.pos = (self.pos + total - len(pairs)) % self.capacity
        for pair in pairs:
            self.slots[self.pos] = pair
            self.pos = (self.pos + 1) % self.capacity
        self.count += total
        self.checksum = (self.checksum + checksum) & U64

    def snapshot(self) -> np.ndarray:
        n = min(self.count, self.capacity)
        if n < self.capacity:
            return self.slots[:n]
        return np.roll(self.slots, -self.pos, axis=0)


def ring_storage(buf: JoinOutputBuffer):
    """Every array the ring holds."""
    return [v for v in vars(buf).values() if isinstance(v, np.ndarray)]


u32 = st.integers(0, 2**32 - 1)
pair_lists = st.lists(st.tuples(u32, u32), max_size=90)
ring_writes = st.lists(st.one_of(
    st.tuples(st.just("pairs"), pair_lists),
    st.tuples(st.just("sized"), pair_lists, st.integers(0, 100), u32),
    st.tuples(st.just("cartesian"), st.lists(u32, max_size=12),
              st.lists(u32, max_size=12)),
), max_size=12)


def apply_write(buf: JoinOutputBuffer, ref: EagerRing, write) -> None:
    kind, *args = write
    if kind == "cartesian":
        r, s = args
        pairs = [(a, b) for a in r for b in s]
        buf.write_cartesian(np.array(r, np.uint32), np.array(s, np.uint32))
        ref.write(pairs, len(pairs), sum(r) * sum(s))
        return
    pairs = args[0]
    r = np.array([a for a, _ in pairs], np.uint32)
    s = np.array([b for _, b in pairs], np.uint32)
    if kind == "pairs":
        buf.write_pairs(r, s)
        ref.write(pairs, len(pairs), reference_checksum(r, s))
    else:
        skipped, checksum = args[1:]
        total = len(pairs) + skipped
        buf.write_pairs(r, s, total=total, checksum=checksum)
        ref.write(pairs, total, checksum)


@given(st.integers(1, 64), ring_writes)
@settings(max_examples=150, deadline=None)
def test_lazy_ring_equals_an_eagerly_allocated_ring(capacity, writes):
    buf = JoinOutputBuffer(capacity)
    ref = EagerRing(capacity)
    assert all(a.size < capacity for a in ring_storage(buf))
    for write in writes:
        apply_write(buf, ref, write)
        assert (buf.count, buf.checksum) == (ref.count, ref.checksum)
        assert np.array_equal(buf.snapshot(), ref.snapshot())
        # Storage covers the written slots and at most doubles them.
        written = min(buf.count, capacity)
        assert written <= buf._r.size <= capacity
        assert buf._r.size == buf._s.size
        assert buf._r.size == 0 or buf._r.size < 2 * written
        assert buf._prod.size <= capacity


@pytest.mark.parametrize("capacity,k", [(1, 0), (16, 1), (16, 8), (16, 15),
                                        (65536, 100)])
def test_ring_storage_stays_below_capacity_until_it_fills(capacity, k):
    buf = JoinOutputBuffer(capacity)
    assert all(a.size == 0 for a in ring_storage(buf))
    pay = np.arange(k, dtype=np.uint32)
    buf.write_pairs(pay, pay)
    assert all(a.size < capacity for a in ring_storage(buf))
    buf.write_pairs(np.arange(capacity, dtype=np.uint32),
                    np.arange(capacity, dtype=np.uint32))
    assert buf._r.size == buf._s.size == capacity


#: Per-join allocation ceiling at 2**16 uniform tuples: rings allocated
#: in full put 18-42 MiB here, rings that hold what they keep 3-5 MiB.
JOIN_PEAK_LIMIT_MIB = 8


@pytest.fixture(scope="module")
def uniform_2_16():
    return ZipfWorkload(1 << 16, 1 << 16, theta=0.0, seed=0).generate()


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_join_peak_allocation_stays_small(algorithm, uniform_2_16):
    """tracemalloc peak of one join on the vector backend.  Unlike peak
    RSS it does not depend on the allocator's state, so per-join buffers
    allocated at full size show up deterministically."""
    join = make_join(algorithm)
    with use_backend("vector"):
        join.run(uniform_2_16)  # warm imports and caches
        tracemalloc.start()
        try:
            join.run(uniform_2_16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= JOIN_PEAK_LIMIT_MIB * 2**20, (
        f"{algorithm}: peak {peak / 2**20:.1f} MiB")

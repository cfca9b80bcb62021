"""Layout invariance: pool-sized morsels reproduce the vector partitions.

``_scatter_parallel`` cuts its own contiguous morsels (``n_workers *
MORSELS_PER_WORKER``) instead of the simulated per-thread segments.  For
any contiguous segmentation the partition-major, segment-minor layout is
the stable order by partition id, so the arrays must equal
``_scatter_vector`` over the simulated segments bit for bit — including
the empty input, inputs smaller than the morsel count, the single
segment of the gbase/gsh path and every fanout up to 2^9.  The same holds
for ``refine_pass`` with and without a ``refine_mask``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.hashing import hash_keys
from repro.cpu.partition import (PartitionedRelation, _scatter_parallel,
                                 _scatter_vector, refine_pass)
from repro.cpu.segments import split_segments
from repro.exec.backend import PARALLEL, VECTOR, use_backend
from repro.exec.parallel import shared_memory_probe

pytestmark = pytest.mark.skipif(
    shared_memory_probe() is not None,
    reason="the parallel backend needs POSIX shared memory")

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


@st.composite
def relations(draw):
    """(keys, payloads, hashes) with sizes around the morsel count."""
    n = draw(st.one_of(st.just(0), st.integers(1, 3),
                       st.integers(4, 3000)))
    n_keys = draw(st.sampled_from([1, 3, 64, 1 << 20]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, size=n, dtype=np.uint32)
    return keys, np.arange(n, dtype=np.uint32), hash_keys(keys)


def _vector_scatter(keys, pays, hashes, start_bit, n_bits, n_threads):
    return _scatter_vector(keys, pays, hashes, start_bit, n_bits,
                           split_segments(keys.size, n_threads))


@_SETTINGS
@given(rel=relations(),
       n_threads=st.sampled_from([1, 20]) | st.integers(2, 64),
       n_bits=st.integers(0, 9), start_bit=st.integers(0, 8))
def test_pool_morsels_scatter_like_simulated_segments(
        parallel_pool_env, rel, n_threads, n_bits, start_bit):
    keys, pays, hashes = rel
    segments = split_segments(keys.size, n_threads)
    want = _vector_scatter(keys, pays, hashes, start_bit, n_bits, n_threads)
    with use_backend(PARALLEL):
        got = _scatter_parallel(keys, pays, hashes, start_bit, n_bits,
                                segments)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@_SETTINGS
@given(rel=relations(), bits1=st.integers(0, 5), bits2=st.integers(0, 4),
       mask_seed=st.none() | st.integers(0, 2 ** 32 - 1))
def test_pool_refine_matches_vector(parallel_pool_env, rel, bits1, bits2,
                                    mask_seed):
    keys, pays, hashes = rel
    with use_backend(PARALLEL):  # the parent lives in the arena
        k, p, h, offsets = _scatter_parallel(
            keys, pays, hashes, 0, bits1, split_segments(keys.size, 20))
    parent = PartitionedRelation(k, p, offsets, h)
    mask = None
    if mask_seed is not None:
        rng = np.random.default_rng(mask_seed)
        mask = rng.random(parent.fanout) < 0.5
    results = {}
    for backend in (VECTOR, PARALLEL):
        with use_backend(backend):
            results[backend] = refine_pass(parent, bits1, bits2, mask)
    want, got = results[VECTOR], results[PARALLEL]
    for name in ("keys", "payloads", "hashes", "offsets"):
        assert np.array_equal(getattr(got.partitioned, name),
                              getattr(want.partitioned, name)), name
    assert got.unit_counters == want.unit_counters

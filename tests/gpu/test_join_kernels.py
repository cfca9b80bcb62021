"""Unit tests for the Gbase join-kernel cost computation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import join
from repro.core.gsh import pipeline as gsh_pipeline
from repro.cpu.hashing import hash_keys
from repro.cpu.partition import partition_pass
from repro.data.generators import constant_key_input, uniform_input
from repro.data.zipf import ZipfWorkload
from repro.exec.backend import use_backend
from repro.exec.differential import default_datasets
from repro.exec.matching import KeyGroupIndex, _expand_pairs_scalar
from repro.exec.output import JoinOutputBuffer
from repro.gpu.device import A100
from repro.gpu.gbase import pipeline as gbase_pipeline
from repro.gpu.gbase.join_kernels import gbase_join_phase, probe_block_counters
from repro.gpu.simulator import GPUSimulator
from tests.conftest import expected_summary


def brute_force_probe_costs(r_keys, s_keys, block_threads, bucket_bits):
    """Reference implementation of the block's probe loop costs."""
    r_hash = hash_keys(r_keys)
    s_hash = hash_keys(s_keys)
    chains = {}
    for h in r_hash:
        b = int(h) >> (32 - bucket_bits) if bucket_bits else 0
        chains[b] = chains.get(b, 0) + 1
    per_probe = []
    for h in s_hash:
        b = int(h) >> (32 - bucket_bits) if bucket_bits else 0
        per_probe.append(chains.get(b, 0))
    useful = sum(per_probe)
    lockstep = 0
    for start in range(0, len(per_probe), block_threads):
        lockstep += max(per_probe[start:start + block_threads], default=0)
    matches = 0
    r_count = Counter(r_keys.tolist())
    for k in s_keys.tolist():
        matches += r_count.get(k, 0)
    return useful, lockstep, matches


@given(st.lists(st.integers(0, 9), min_size=0, max_size=40),
       st.lists(st.integers(0, 9), min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_probe_block_counters_vs_brute_force(r_list, s_list):
    r_keys = np.array(r_list, dtype=np.uint32)
    s_keys = np.array(s_list, dtype=np.uint32)
    bucket_bits = 4
    threads = 8
    useful, lockstep, matches = brute_force_probe_costs(
        r_keys, s_keys, threads, bucket_bits)
    counters = probe_block_counters(
        hash_keys(r_keys), hash_keys(s_keys), matches, threads, bucket_bits,
    )
    assert counters.atomic_ops == useful
    assert counters.key_compares == useful
    assert counters.chain_steps == lockstep
    assert counters.sync_barriers == lockstep
    assert counters.output_tuples == matches
    assert counters.table_inserts == r_keys.size
    assert counters.hash_ops == r_keys.size + s_keys.size


def test_empty_sides_have_no_probe_cost():
    empty = np.empty(0, dtype=np.uint32)
    keys = np.arange(10, dtype=np.uint32)
    c1 = probe_block_counters(hash_keys(empty), hash_keys(keys), 0, 32, 4)
    assert c1.chain_steps == 0 and c1.output_tuples == 0
    c2 = probe_block_counters(hash_keys(keys), hash_keys(empty), 0, 32, 4)
    assert c2.chain_steps == 0
    assert c2.table_inserts == 10


def test_gbase_join_phase_block_count_matches_sublist_math():
    ji = constant_key_input(10000, 500, seed=1)
    bits = 2
    pr = partition_pass(ji.r.keys, ji.r.payloads, hash_keys(ji.r.keys),
                        0, bits, 1).partitioned
    ps = partition_pass(ji.s.keys, ji.s.payloads, hash_keys(ji.s.keys),
                        0, bits, 1).partitioned
    sim = GPUSimulator(device=A100)
    phase = gbase_join_phase(pr, ps, sim, sublist_capacity=1024)
    # all 10000 R tuples share one partition; bucket-aligned sub-lists of
    # <= 1024 tuples (bucket = 512) -> 10 blocks
    assert phase.n_blocks == 10
    assert phase.summary.count == 10000 * 500


def test_gbase_join_phase_uniform_one_block_per_pair():
    ji = uniform_input(4000, 4000, seed=2)
    bits = 3
    pr = partition_pass(ji.r.keys, ji.r.payloads, hash_keys(ji.r.keys),
                        0, bits, 1).partitioned
    ps = partition_pass(ji.s.keys, ji.s.payloads, hash_keys(ji.s.keys),
                        0, bits, 1).partitioned
    sim = GPUSimulator(device=A100)
    phase = gbase_join_phase(pr, ps, sim, sublist_capacity=None)
    assert phase.n_blocks == 8


def test_sublists_only_multiply_probe_side_reads():
    """Each additional sub-list re-reads the S partition once — the
    S-amplification the paper criticizes in Gbase."""
    ji = constant_key_input(8192, 1000, seed=3)
    pr = partition_pass(ji.r.keys, ji.r.payloads, hash_keys(ji.r.keys),
                        0, 0, 1).partitioned
    ps = partition_pass(ji.s.keys, ji.s.payloads, hash_keys(ji.s.keys),
                        0, 0, 1).partitioned
    sim1, sim2 = GPUSimulator(device=A100), GPUSimulator(device=A100)
    one = gbase_join_phase(pr, ps, sim1, sublist_capacity=None)
    many = gbase_join_phase(pr, ps, sim2, sublist_capacity=1024)
    # hash ops on the probe side scale with the number of sub-lists
    assert many.counters.hash_ops > one.counters.hash_ops
    n_sub = many.n_blocks
    expected_probe_hashes = n_sub * 1000 + 8192
    assert many.counters.hash_ops == expected_probe_hashes
    assert many.matches_equal(one) if hasattr(many, "matches_equal") else \
        (many.summary.count == one.summary.count
         and many.summary.checksum == one.summary.checksum)


# ---------------------------------------------- one table per partition pair


def partitioned(ji, bits):
    return tuple(
        partition_pass(rel.keys, rel.payloads, hash_keys(rel.keys),
                       0, bits, 1).partitioned
        for rel in (ji.r, ji.s))


def live_pairs(pr, ps):
    return np.flatnonzero((pr.sizes() > 0) & (ps.sizes() > 0))


def launched_blocks(sim, monkeypatch):
    """The BlockWork list every launch on ``sim`` receives."""
    blocks = []
    launch = sim.launch

    def record(name, work):
        blocks.extend(work)
        return launch(name, work)

    monkeypatch.setattr(sim, "launch", record)
    return blocks


@pytest.mark.parametrize("backend", ["vector", "parallel"])
@pytest.mark.parametrize("case", ["sublists", "single-block"])
def test_block_outputs_match_brute_force_per_r_slice(
        backend, case, parallel_pool_env, monkeypatch):
    if case == "sublists":
        ji, bits, capacity = constant_key_input(10000, 500, seed=1), 2, 1024
    else:
        ji, bits, capacity = uniform_input(4000, 4000, seed=2), 3, None
    pr, ps = partitioned(ji, bits)
    sim = GPUSimulator(device=A100)
    blocks = launched_blocks(sim, monkeypatch)
    with use_backend(backend):
        phase = gbase_join_phase(pr, ps, sim, sublist_capacity=capacity)
    assert len(blocks) == phase.n_blocks
    if case == "sublists":
        assert phase.n_blocks > live_pairs(pr, ps).size
    # Blocks come pair by pair; a block's R slice is the next
    # table_inserts tuples of its pair's R partition.
    todo = iter(blocks)
    for p in live_pairs(pr, ps):
        r_keys, _ = pr.partition(int(p))
        s_count = Counter(ps.partition(int(p))[0].tolist())
        start = 0
        while start < r_keys.size:
            block = next(todo).counters
            stop = start + block.table_inserts
            want = sum(s_count.get(k, 0) for k in r_keys[start:stop].tolist())
            assert block.output_tuples == want
            start = stop
    assert next(todo, None) is None
    assert phase.counters.output_tuples == sum(
        b.counters.output_tuples for b in blocks)


@pytest.mark.parametrize("backend", ["vector", "parallel"])
def test_rings_match_pairwise_scalar_expansion(backend, parallel_pool_env):
    """Each pair's pairs land in ring ``i % n_rings`` in scalar expansion
    order; 128 partitions share the 64 rings, and the 48-slot rings keep
    only a tail of most pairs."""
    ji = ZipfWorkload(6000, 6000, theta=1.0, seed=5).generate()
    pr, ps = partitioned(ji, 7)
    with use_backend(backend):
        phase = gbase_join_phase(pr, ps, GPUSimulator(device=A100),
                                 sublist_capacity=64, output_capacity=48)
    pairs = live_pairs(pr, ps)
    want = [JoinOutputBuffer(48) for _ in range(min(pairs.size, 64))]
    for i, p in enumerate(pairs):
        want[i % len(want)].write_pairs(*_expand_pairs_scalar(
            *pr.partition(int(p)), *ps.partition(int(p))))
    assert len(phase.buffers) == len(want) == 64
    for got, ref in zip(phase.buffers, want):
        assert (got.count, got.checksum) == (ref.count, ref.checksum)
        assert np.array_equal(got.snapshot(), ref.snapshot())


def count_phase_pairs_and_indexes(monkeypatch, pipeline_module):
    """Count KeyGroupIndex builds, and the live pairs each join phase of
    ``pipeline_module`` is handed."""
    seen = {"indexes": 0, "pairs": 0, "blocks": 0}
    init = KeyGroupIndex.__init__

    def counting_init(self, *args, **kwargs):
        seen["indexes"] += 1
        init(self, *args, **kwargs)

    phase_fn = pipeline_module.gbase_join_phase

    def counting_phase(part_r, part_s, *args, **kwargs):
        seen["pairs"] += live_pairs(part_r, part_s).size
        phase = phase_fn(part_r, part_s, *args, **kwargs)
        seen["blocks"] += phase.n_blocks
        return phase

    monkeypatch.setattr(KeyGroupIndex, "__init__", counting_init)
    monkeypatch.setattr(pipeline_module, "gbase_join_phase", counting_phase)
    return seen


@pytest.mark.parametrize("algorithm", ["gbase", "gsh"])
def test_one_index_per_partition_pair_on_uniform_input(algorithm,
                                                       monkeypatch):
    """Without sub-lists, a GPU join sorts each pair's R exactly once."""
    module = gbase_pipeline if algorithm == "gbase" else gsh_pipeline
    seen = count_phase_pairs_and_indexes(monkeypatch, module)
    ji = uniform_input(20000, 20000, seed=3)
    with use_backend("vector"):
        result = join(ji, algorithm=algorithm)
    assert result.output_count == expected_summary(ji)[0]
    assert seen["pairs"] > 1
    assert seen["blocks"] == seen["pairs"]
    assert seen["indexes"] == seen["pairs"]


def test_ring_tail_diff_dataset_splits_a_gbase_pair(monkeypatch):
    """CI's ``repro diff --tuples 11525`` leg is the only differential leg
    whose gbase run splits a pair into sub-lists; if a change of radix
    bits stopped that, no leg would pin per-sub-list output counts
    across backends any more."""
    seen = count_phase_pairs_and_indexes(monkeypatch, gbase_pipeline)
    ji = default_datasets(11525, seed=42)["zipf-1.0"]
    with use_backend("vector"):
        result = join(ji, algorithm="gbase")
    assert result.meta["join_blocks"] == seen["blocks"]
    assert seen["blocks"] > seen["pairs"]

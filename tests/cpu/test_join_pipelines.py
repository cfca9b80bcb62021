"""End-to-end tests for the CPU pipelines: Cbase, cbase-npj, join phase."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.hashing import hash_keys
from repro.cpu.join_phase import join_partition_pairs
from repro.cpu.no_partition_join import NoPartitionConfig, NoPartitionJoin
from repro.cpu.partition import partition_pass
from repro.cpu.radix_join import CbaseConfig, CbaseJoin
from repro.cpu.threads import ThreadPool
from repro.data.generators import (
    constant_key_input,
    input_from_frequencies,
    sequential_input,
    uniform_input,
)
from repro.data.relation import JoinInput, Relation
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError
from repro.exec.counters import OpCounters
from tests.conftest import assert_result_correct


def test_cbase_correct_on_uniform(small_uniform):
    assert_result_correct(CbaseJoin().run(small_uniform), small_uniform)


def test_cbase_correct_on_skewed(small_skewed):
    assert_result_correct(CbaseJoin().run(small_skewed), small_skewed)


def test_cbase_correct_on_tiny(tiny_input):
    res = CbaseJoin().run(tiny_input)
    assert res.output_count == 1 * 2 + 2 * 1  # hand-counted joins
    assert_result_correct(res, tiny_input)


def test_cbase_phases_present(small_uniform):
    res = CbaseJoin().run(small_uniform)
    assert [p.name for p in res.phases] == ["partition", "join"]
    assert res.simulated_seconds > 0


def test_cbase_handles_empty_tables():
    ji = JoinInput(r=Relation.empty("R"), s=Relation.empty("S"))
    res = CbaseJoin().run(ji)
    assert res.output_count == 0


def test_cbase_disjoint_keys_produce_nothing():
    ji = input_from_frequencies([1, 1, 0, 0], [0, 0, 1, 1], seed=0)
    res = CbaseJoin().run(ji)
    assert res.output_count == 0


def test_cbase_explicit_bits_respected():
    ji = uniform_input(2000, 2000, seed=1)
    res = CbaseJoin(CbaseConfig(bits_pass1=3, bits_pass2=2)).run(ji)
    assert res.meta["bits_pass1"] == 3
    assert res.meta["bits_pass2"] == 2
    assert_result_correct(res, ji)


def test_cbase_split_triggers_on_dominant_key():
    """A fully skewed input must trip the oversized-partition splitting."""
    ji = constant_key_input(20000, 1000, seed=0)
    cfg = CbaseConfig(bits_pass1=3, bits_pass2=2, split_factor=2.0,
                      split_bits=2)
    res = CbaseJoin(cfg).run(ji)
    assert res.phase("partition").details.get("split_partitions", 0) >= 1
    assert_result_correct(res, ji)


def test_cbase_config_validation():
    with pytest.raises(ConfigError):
        CbaseConfig(n_threads=0)
    with pytest.raises(ConfigError):
        CbaseConfig(split_factor=1.0)
    with pytest.raises(ConfigError):
        CbaseConfig(split_bits=-1)


def test_cbase_join_time_grows_with_skew():
    lo = ZipfWorkload(30000, 30000, theta=0.2, seed=1).generate()
    hi = ZipfWorkload(30000, 30000, theta=1.0, seed=1).generate()
    t_lo = CbaseJoin().run(lo).phase("join").simulated_seconds
    t_hi = CbaseJoin().run(hi).phase("join").simulated_seconds
    assert t_hi > 5 * t_lo


def test_cbase_partition_time_stable_under_skew():
    """Figure 1's observation: partition time barely moves with skew."""
    lo = ZipfWorkload(30000, 30000, theta=0.0, seed=2).generate()
    hi = ZipfWorkload(30000, 30000, theta=1.0, seed=2).generate()
    t_lo = CbaseJoin().run(lo).phase("partition").simulated_seconds
    t_hi = CbaseJoin().run(hi).phase("partition").simulated_seconds
    assert t_hi < 2.0 * t_lo


def test_npj_correct(small_uniform, small_skewed, tiny_input):
    for ji in (small_uniform, small_skewed, tiny_input):
        assert_result_correct(NoPartitionJoin().run(ji), ji)


def test_npj_phases():
    ji = sequential_input(1000, seed=0)
    res = NoPartitionJoin().run(ji)
    assert [p.name for p in res.phases] == ["build", "probe"]
    assert res.counters.random_accesses > 0


def test_npj_slower_than_cbase_on_uniform():
    """Figure 4a: cbase-npj is the worst performer."""
    ji = uniform_input(50000, 50000, seed=3)
    t_npj = NoPartitionJoin().run(ji).simulated_seconds
    t_cbase = CbaseJoin().run(ji).simulated_seconds
    assert t_npj > t_cbase


def test_npj_config_validation():
    with pytest.raises(ConfigError):
        NoPartitionConfig(n_threads=0)


def test_queue_phase_length_mismatch_reports_counts():
    pool = ThreadPool(2)
    tasks = [OpCounters(hash_ops=10)] * 3
    with pytest.raises(ConfigError, match=r"2 extra costs for 3 tasks"):
        pool.queue_phase_seconds(tasks, extra_task_seconds=[0.1, 0.2])


def test_join_partition_pairs_requires_aligned_fanout():
    keys = np.arange(100, dtype=np.uint32)
    pr = partition_pass(keys, keys, hash_keys(keys), 0, 2, 2).partitioned
    ps = partition_pass(keys, keys, hash_keys(keys), 0, 3, 2).partitioned
    with pytest.raises(ValueError):
        join_partition_pairs(pr, ps, ThreadPool(2))


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_cbase_vs_npj_agree_property(seed, scale_r, scale_s):
    ji = uniform_input(200 * scale_r, 200 * scale_s, n_keys=150,
                       seed=seed)
    a = CbaseJoin(CbaseConfig(n_threads=4)).run(ji)
    b = NoPartitionJoin(NoPartitionConfig(n_threads=4)).run(ji)
    assert a.matches(b)
    assert_result_correct(a, ji)

"""The out-of-core memory claim: a dataset larger than the memory budget
joins on every backend with the run's resident footprint under it.

The dataset is streamed to a zlib chunk store (cbase-npj, 2^16 build x
2^22 probe tuples, theta 0.5) and the budget is half its raw size, so it
cannot fit by construction.  Each backend runs in a fresh child process:
``VmHWM`` is a process-lifetime high-water mark, so measuring inside the
long-lived test process would inherit whatever it had already touched.
The child imports everything first, resets the high-water mark, takes
its current RSS as the baseline, then opens the store and joins; the
bound is on peak minus baseline.  Workers forked by the parallel backend
are separate processes; the bound is the driver's residency, which is
where the morsel paging and arena traffic live.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.relation import JoinInput
from repro.data.stream import stream_zipf_input
from repro.store.relations import dataset_bytes, open_join_input
from tests.conftest import expected_summary

pytestmark = pytest.mark.slow

N_R, N_S, THETA, SEED = 1 << 16, 1 << 22, 0.5, 42
CHUNK_TUPLES = 1 << 17
CACHE_SEGMENTS = 2
#: The streamed probe's working set scales with the morsel
#: (``n_s / n_threads``), so the run uses more, smaller segments than the
#: latency-tuned default; the answer is the same for any thread count.
N_THREADS = 64

_CHILD = """
import json, sys
from repro.obs.rss import current_rss_bytes, peak_rss_bytes, reset_peak_rss
from repro.api import make_join
from repro.cpu.no_partition_join import NoPartitionConfig
from repro.exec.backend import use_backend
from repro.store.relations import open_join_input

directory, backend, cache_segments, n_threads = sys.argv[1:]
# Imports above, baseline below: the delta covers exactly the store,
# the paging, and the join.
reset_peak_rss()
baseline = current_rss_bytes() or peak_rss_bytes()
join_input, store = open_join_input(directory,
                                    cache_segments=int(cache_segments))
try:
    with use_backend(backend):
        config = NoPartitionConfig(n_threads=int(n_threads))
        result = make_join("cbase-npj", config).run(join_input)
finally:
    store.close()
print(json.dumps({
    "delta": max(int(result.meta["peak_rss_bytes"]) - baseline, 0),
    "count": result.output_count,
    "checksum": result.output_checksum,
}))
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The streamed store, its budget, and its closed-form answer."""
    directory = tmp_path_factory.mktemp("oocore")
    stream_zipf_input(directory, N_R, N_S, THETA, seed=SEED, codec="zlib",
                      chunk_tuples=CHUNK_TUPLES)
    join_input, store = open_join_input(directory)
    try:
        answer = expected_summary(JoinInput(r=join_input.r.to_relation(),
                                            s=join_input.s.to_relation()))
    finally:
        store.close()
    return directory, dataset_bytes(directory) // 2, answer


def _run_child(directory: Path, backend: str) -> dict:
    src_root = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_root), env.get("PYTHONPATH", "")) if p)
    env.setdefault("REPRO_WORKERS", "2")
    # By default glibc raises its mmap threshold as large blocks are
    # freed, after which freed morsel buffers stay in the heap and the
    # measured floor creeps upward.  Pinning it keeps frees returning to
    # the OS, so the child measures the streaming working set rather
    # than allocator retention.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(directory), backend,
         str(CACHE_SEGMENTS), str(N_THREADS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("backend", ["scalar", "vector", "parallel"])
def test_dataset_larger_than_the_budget_joins_under_it(dataset, backend):
    directory, budget, (count, checksum) = dataset
    assert dataset_bytes(directory) > budget

    run = _run_child(directory, backend)

    assert run["delta"] < budget, (
        f"{backend}: RSS delta {run['delta'] / 2**20:.1f} MiB over the "
        f"{budget / 2**20:.1f} MiB budget")
    # Every backend matches the same closed-form answer, so they all match
    # each other.
    assert (run["count"], run["checksum"]) == (count, checksum)

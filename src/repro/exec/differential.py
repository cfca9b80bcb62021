"""Differential testing of the execution backends.

All backends (scalar, vector, parallel) are required to be
*observationally identical*: the same join output (count and checksum),
the same phase structure, the same operation counters phase by phase, and
the same simulated seconds.  Only wall time may differ — that is the
whole point of having fast backends.

This module runs one algorithm once per backend and diffs every result
against the first backend's, field by field.  :func:`differential_matrix`
sweeps the full algorithm x dataset grid the CI gate runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.generators import constant_key_input, uniform_input
from repro.data.relation import JoinInput, Relation
from repro.data.zipf import ZipfWorkload
from repro.exec.backend import BACKENDS, use_backend
from repro.exec.result import JoinResult

#: Meta keys allowed to differ between backends (the backend tag itself)
#: and between spilled and in-RAM runs (how a run met its memory budget
#: is environment, not answer — the join output must still be identical).
#: ``plan`` is the planning rule's stamp: how the algorithm was chosen is
#: environment too, and the plan gate's bit-identity check relies on
#: ``run --auto`` and the hand-forced pick comparing clean.
_BACKEND_ONLY_META = frozenset({
    "backend",
    "plan",
    "spilled_partitions",
    "spill_chunks",
    "spill_degraded",
    "resumed_pairs",
    "spill_invalid_chunks",
    # Peak RSS is a property of the process, not of the join answer:
    # it legitimately differs across backends and between out-of-core
    # and in-RAM runs of the same join.
    "peak_rss_bytes",
})

#: Relative tolerance for simulated seconds (float summation order may
#: differ across backends in principle; in practice both run the same
#: accumulation and agree exactly, so this is belt and braces).
_SIM_RTOL = 1e-9


def compare_results(a: JoinResult, b: JoinResult) -> List[str]:
    """Field-by-field mismatches between two runs (empty when identical).

    Wall-clock fields are excluded; everything observable — output, phase
    structure, counters, simulated time, metadata, fault reports — must
    match exactly.
    """
    issues: List[str] = []
    if a.algorithm != b.algorithm:
        issues.append(f"algorithm: {a.algorithm!r} != {b.algorithm!r}")
    if a.output_count != b.output_count:
        issues.append(
            f"output_count: {a.output_count} != {b.output_count}")
    if a.output_checksum != b.output_checksum:
        issues.append(
            f"output_checksum: {a.output_checksum} != {b.output_checksum}")
    names_a = [p.name for p in a.phases]
    names_b = [p.name for p in b.phases]
    if names_a != names_b:
        issues.append(f"phase structure: {names_a} != {names_b}")
    else:
        for pa, pb in zip(a.phases, b.phases):
            ca, cb = pa.counters.as_dict(), pb.counters.as_dict()
            if ca != cb:
                drift = {k: (ca[k], cb[k]) for k in ca if ca[k] != cb[k]}
                issues.append(f"phase {pa.name!r} counters differ: {drift}")
            if not np.isclose(pa.simulated_seconds, pb.simulated_seconds,
                              rtol=_SIM_RTOL, atol=0.0):
                issues.append(
                    f"phase {pa.name!r} simulated_seconds: "
                    f"{pa.simulated_seconds!r} != {pb.simulated_seconds!r}")
    meta_a = {k: v for k, v in a.meta.items() if k not in _BACKEND_ONLY_META}
    meta_b = {k: v for k, v in b.meta.items() if k not in _BACKEND_ONLY_META}
    if meta_a != meta_b:
        keys = set(meta_a) | set(meta_b)
        drift = {k: (meta_a.get(k), meta_b.get(k))
                 for k in sorted(keys) if meta_a.get(k) != meta_b.get(k)}
        issues.append(f"meta differs: {drift}")
    if len(a.faults) != len(b.faults):
        issues.append(f"fault reports: {len(a.faults)} != {len(b.faults)}")
    return issues


def summary_mismatches(reference: JoinResult, count: int,
                       checksum: int, label: str = "candidate") -> List[str]:
    """Mismatches between a result's output summary and a bare
    ``(count, checksum)`` pair (empty when identical).

    The serve layer's served-vs-direct leg compares streamed, cache-built
    answers against one-shot pipeline runs with this — the served side
    has a different phase structure by design (a warm hit has no build
    phase), so only the join answer itself is compared.
    """
    issues: List[str] = []
    if reference.output_count != count:
        issues.append(
            f"output_count: {reference.output_count} != {count} ({label})")
    if reference.output_checksum != checksum:
        issues.append(
            f"output_checksum: {reference.output_checksum:#x} != "
            f"{checksum:#x} ({label})")
    return issues


@dataclass
class DifferentialReport:
    """Outcome of one backend-vs-backend comparison."""

    algorithm: str
    dataset: str
    backends: Tuple[str, ...]
    mismatches: List[str] = field(default_factory=list)
    output_count: int = 0

    @property
    def ok(self) -> bool:
        """True when the backends were observationally identical."""
        return not self.mismatches


def run_differential(
    run: Callable[[], JoinResult],
    algorithm: str = "",
    dataset: str = "",
    backends: Sequence[str] = BACKENDS,
) -> DifferentialReport:
    """Execute ``run`` under each backend; diff each against the first."""
    if len(backends) < 2:
        raise ValueError("differential comparison needs >= 2 backends")
    backends = tuple(backends)
    reference_backend = backends[0]
    with use_backend(reference_backend):
        reference = run()
    mismatches: List[str] = []
    for other in backends[1:]:
        with use_backend(other):
            result = run()
        for issue in compare_results(reference, result):
            if len(backends) > 2:
                issue = f"[{reference_backend} vs {other}] {issue}"
            mismatches.append(issue)
    return DifferentialReport(
        algorithm=algorithm or reference.algorithm,
        dataset=dataset,
        backends=backends,
        mismatches=mismatches,
        output_count=reference.output_count,
    )


def default_datasets(n: int, seed: int = 42) -> Dict[str, JoinInput]:
    """The dataset grid the differential matrix covers.

    Heavy Zipf skew, uniform keys, a duplicates-only cartesian stressor,
    and an empty probe side — the shapes where scalar/vector divergence
    would hide.
    """
    empty = JoinInput(
        r=Relation(np.arange(max(n // 8, 1), dtype=np.uint32),
                   np.arange(max(n // 8, 1), dtype=np.uint32), name="R"),
        s=Relation(np.empty(0, dtype=np.uint32),
                   np.empty(0, dtype=np.uint32), name="S"),
        meta={"generator": "empty-s"},
    )
    return {
        "zipf-1.0": ZipfWorkload(n, n, theta=1.0, seed=seed).generate(),
        "uniform": uniform_input(n, n, seed=seed),
        "dup-only": constant_key_input(max(n // 8, 1), max(n // 8, 1),
                                       seed=seed),
        "empty-s": empty,
    }


def differential_matrix(
    n: int = 2048,
    seed: int = 42,
    algorithms: Optional[Iterable[str]] = None,
    datasets: Optional[Dict[str, JoinInput]] = None,
    backends: Sequence[str] = BACKENDS,
) -> List[DifferentialReport]:
    """Run the full algorithm x dataset differential grid."""
    from repro.api import ALGORITHMS, make_join

    algorithms = sorted(ALGORITHMS) if algorithms is None else list(algorithms)
    datasets = default_datasets(n, seed) if datasets is None else datasets
    reports = []
    for ds_name, join_input in datasets.items():
        for algo in algorithms:
            reports.append(run_differential(
                lambda a=algo, ji=join_input: make_join(a).run(ji),
                algorithm=algo, dataset=ds_name, backends=backends,
            ))
    return reports


def spill_differential(
    n: int = 2048,
    seed: int = 42,
    algorithms: Optional[Iterable[str]] = None,
    datasets: Optional[Dict[str, JoinInput]] = None,
    backends: Sequence[str] = BACKENDS,
) -> List[DifferentialReport]:
    """The spill column of the differential grid.

    For each dataset and spill-capable algorithm, runs an in-RAM
    reference and then, on every backend, the same join under a memory
    budget tight enough to force partitions through the on-disk chunk
    store (a fresh ephemeral spill session per run).  Every spilled run
    must be observationally identical to the in-RAM reference — phase
    structure, counters, simulated seconds, output — and must actually
    have spilled (a gate that silently stayed in RAM fails the report).
    """
    from repro.api import make_join
    from repro.faults.plan import SPILL_ALGORITHM_NAMES
    from repro.store import open_spill_session

    algorithms = (list(SPILL_ALGORITHM_NAMES) if algorithms is None
                  else list(algorithms))
    datasets = default_datasets(n, seed) if datasets is None else datasets
    reports = []
    for ds_name, join_input in datasets.items():
        total_bytes = 12 * (len(join_input.r) + len(join_input.s))
        budget = max(total_bytes // 4, 1)
        for algo in algorithms:
            with use_backend(backends[0]):
                reference = make_join(algo).run(join_input)
            mismatches: List[str] = []
            for backend in backends:
                with use_backend(backend):
                    with open_spill_session(
                            budget_bytes=budget,
                            chunk_bytes=max(budget // 2, 4096)):
                        spilled = make_join(algo).run(join_input)
                for issue in compare_results(reference, spilled):
                    mismatches.append(f"[in-RAM vs {backend}+spill] {issue}")
                # CSH diverts skewed tuples to the on-the-fly join; only
                # the normal partitions can spill, so a workload whose
                # tuples are all skewed legitimately never engages.
                normal_r = int(len(join_input.r)) - int(
                    reference.meta.get("skewed_r_tuples", 0))
                if normal_r > 0 and not spilled.meta.get(
                        "spilled_partitions"):
                    mismatches.append(
                        f"[{backend}] spill did not engage under a "
                        f"{budget}-byte budget")
            reports.append(DifferentialReport(
                algorithm=algo, dataset=f"{ds_name}+spill",
                backends=tuple(backends), mismatches=mismatches,
                output_count=reference.output_count,
            ))
    return reports


def oocore_differential(
    n: int = 4096,
    seed: int = 42,
    algorithms: Optional[Iterable[str]] = None,
    backends: Sequence[str] = BACKENDS,
) -> List[DifferentialReport]:
    """The out-of-core column of the differential grid.

    Streams zipf and uniform workloads to an on-disk relation store
    (multiple chunks per column, compressed codec on the zipf case),
    then runs every algorithm on every backend with the input paging in
    lazily through :class:`~repro.store.relations.MappedRelation`.  Each
    run must be observationally identical to the same algorithm over the
    bulk-generated in-RAM input — the streamed generators are
    bit-identical to the bulk ones, so any divergence is a paging bug,
    not a workload difference.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.api import ALGORITHMS, make_join
    from repro.data.stream import stream_uniform_input, stream_zipf_input
    from repro.store.relations import open_join_input

    algorithms = sorted(ALGORITHMS) if algorithms is None else list(algorithms)
    chunk = max(n // 4, 1)
    cases = {
        "zipf-1.0": (
            lambda d: stream_zipf_input(d, n, n, 1.0, seed=seed,
                                        codec="zlib", chunk_tuples=chunk),
            lambda: ZipfWorkload(n, n, theta=1.0, seed=seed).generate(),
        ),
        "uniform": (
            lambda d: stream_uniform_input(d, n, n, seed=seed,
                                           codec="raw", chunk_tuples=chunk),
            lambda: uniform_input(n, n, seed=seed),
        ),
    }
    reports = []
    for ds_name, (write, bulk) in cases.items():
        tmp = Path(tempfile.mkdtemp(prefix=f"repro-oocore-{ds_name}-"))
        try:
            write(tmp)
            reference_input = bulk()
            for algo in algorithms:
                with use_backend(backends[0]):
                    reference = make_join(algo).run(reference_input)
                mismatches: List[str] = []
                for backend in backends:
                    # A fresh lazy view per run: no page cache or
                    # materialization state carries across backends.
                    streamed_input, store = open_join_input(tmp)
                    try:
                        with use_backend(backend):
                            streamed = make_join(algo).run(streamed_input)
                    finally:
                        store.close()
                    for issue in compare_results(reference, streamed):
                        mismatches.append(
                            f"[in-RAM vs {backend}+oocore] {issue}")
                reports.append(DifferentialReport(
                    algorithm=algo, dataset=f"{ds_name}+oocore",
                    backends=tuple(backends), mismatches=mismatches,
                    output_count=reference.output_count,
                ))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return reports


def render_differential(reports: Sequence[DifferentialReport]) -> str:
    """Human-readable grid summary of differential outcomes."""
    names = reports[0].backends if reports else BACKENDS
    lines = [f"backend differential — {' vs '.join(names)}", ""]
    width = max((len(r.algorithm) for r in reports), default=8)
    ds_width = max((len(r.dataset) for r in reports), default=8)
    for r in reports:
        status = "OK" if r.ok else "MISMATCH"
        lines.append(f"  {r.algorithm:<{width}}  {r.dataset:<{ds_width}}  "
                     f"{status}  ({r.output_count} output tuples)")
        for issue in r.mismatches:
            lines.append(f"      - {issue}")
    n_bad = sum(1 for r in reports if not r.ok)
    lines.append("")
    if n_bad:
        lines.append(f"{n_bad}/{len(reports)} case(s) diverged between "
                     "backends")
    else:
        lines.append(f"all {len(reports)} case(s) bit-identical across "
                     "backends")
    return "\n".join(lines)

"""The benchmark's workloads; this file is also the per-workload child.

``perf/run.py`` starts one fresh process per workload run, so peak RSS
and every cache belong to that workload alone::

    python perf/workloads.py --workload skew-batch --seed 42 --seconds 25 \\
        --mode measure --out perf/out --launched <perf_counter at spawn>

``--mode setup`` stops once the inputs are ready, ``measure`` runs the
timed loop with tracing off, ``trace`` runs it under the layer wrappers
of :mod:`layers`.  The last stdout line is one JSON object with the
measurements; the program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from stats import percentile

PERF_DIR = Path(__file__).resolve().parent
SRC_DIR = PERF_DIR.parent / "src"
EXPECTED_PATH = PERF_DIR / "expected.json"

#: The seed whose answers are pinned in ``expected.json``.
PINNED_SEED = 42

#: Bytes per tuple (4-byte key + 4-byte payload).
TUPLE_BYTES = 8

#: Timed ops a batch run needs for its p90 to leave ten samples beyond it;
#: a run that has fewer at ``--seconds`` keeps going, up to
#: ``MAX_STRETCH`` times ``--seconds``.
MIN_OPS = 100
MAX_STRETCH = 2

ALL_ALGORITHMS = ("cbase", "cbase-npj", "csh", "gbase", "gsh")


def peak_rss_mib(pid="self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def answer(count: int, checksum: int, simulated_seconds: float) -> List:
    return [int(count), int(checksum), float(simulated_seconds)]


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------ batch


@dataclass(frozen=True)
class BatchWorkload:
    """Closed loop, one caller: rounds of joins, each round running every
    algorithm once on the next of the workload's prepared inputs."""

    name: str
    n_r: int
    n_s: int
    algorithms: Tuple[str, ...]
    #: ``(workload, seed, work_dir) -> handle``: everything before the
    #: first join.
    prepare: Callable
    #: ``(handle, algorithm) -> JoinResult``: one timed op.
    run_op: Callable
    #: ``handle -> JoinInput`` for the closed-form answer check.
    reference: Callable
    #: Environment of the child process (everything else REPRO_* is unset).
    env: Dict[str, str] = field(default_factory=dict)
    #: Guarded layers this workload must exercise (see layers.GUARDED_LAYERS).
    layers: Tuple[str, ...] = ()
    #: Independent inputs drawn from the run's seed, joined in rotation.
    inputs: int = 1


def _zipf_in_ram(wl, seed, _work_dir):
    from repro import ZipfWorkload
    return ZipfWorkload(n_r=wl.n_r, n_s=wl.n_s, theta=1.0,
                        seed=seed).generate()


def _uniform_with_pool(wl, seed, _work_dir):
    from repro.data import uniform_input
    from repro.exec.parallel import get_pool
    join_input = uniform_input(wl.n_r, wl.n_s, seed=seed)
    get_pool()
    return join_input


def _run_in_ram(join_input, algorithm):
    from repro import make_join
    return make_join(algorithm).run(join_input)


def _stream_to_disk(wl, seed, work_dir):
    from repro.data import stream_zipf_input
    directory = work_dir / "oocore"
    stream_zipf_input(directory, wl.n_r, wl.n_s, 0.5, seed=seed,
                      codec="zlib", chunk_tuples=1 << 15)
    return directory


def _run_streamed(directory, algorithm):
    # As ``repro run --stream`` does: open the store, join, close.
    from repro import make_join
    from repro.store.relations import open_join_input
    join_input, store = open_join_input(directory, cache_segments=2)
    try:
        return make_join(algorithm).run(join_input)
    finally:
        store.close()


def _materialized(directory):
    from repro.data.relation import JoinInput
    from repro.store.relations import open_join_input
    join_input, store = open_join_input(directory)
    try:
        return JoinInput(r=join_input.r.to_relation(),
                         s=join_input.s.to_relation())
    finally:
        store.close()


BATCH = {
    # Under heavy skew the work of cbase, gbase and gsh depends on which
    # heavy keys share a partition, so one input's cost varies by seed;
    # rotating through eight inputs keeps a run's numbers about the regime
    # rather than one draw.
    "skew-batch": BatchWorkload(
        name="skew-batch", n_r=1 << 17, n_s=1 << 17,
        algorithms=ALL_ALGORITHMS, prepare=_zipf_in_ram,
        run_op=_run_in_ram, reference=lambda ji: ji,
        env={"REPRO_BACKEND": "vector"}, inputs=8),
    "uniform-parallel": BatchWorkload(
        name="uniform-parallel", n_r=1 << 17, n_s=1 << 17,
        algorithms=ALL_ALGORITHMS, prepare=_uniform_with_pool,
        run_op=_run_in_ram, reference=lambda ji: ji,
        env={"REPRO_BACKEND": "parallel", "REPRO_WORKERS": "2"},
        layers=("parallel",)),
    "oocore-stream": BatchWorkload(
        name="oocore-stream", n_r=1 << 15, n_s=1 << 18,
        algorithms=("cbase-npj",), prepare=_stream_to_disk,
        run_op=_run_streamed, reference=_materialized,
        env={"REPRO_BACKEND": "vector"}, layers=("store",)),
}

#: Environment and guarded layers of the served workload (serveload.py).
SERVE_ENV = {"REPRO_BACKEND": "vector"}
SERVE_LAYERS = ("serve",)

WORKLOADS = ("skew-batch", "uniform-parallel", "oocore-stream", "serve-mix")


def workload_env(name: str) -> Dict[str, str]:
    return BATCH[name].env if name in BATCH else SERVE_ENV


def closed_form(join_input) -> Tuple[int, int]:
    """(count, checksum) straight from the key histograms."""
    from repro.data.histogram import (KeyHistogram, join_output_checksum,
                                      join_output_count)
    count = join_output_count(KeyHistogram.from_relation(join_input.r),
                              KeyHistogram.from_relation(join_input.s))
    return count, join_output_checksum(join_input.r, join_input.s)


def run_batch(wl: BatchWorkload, seed: int, seconds: float, mode: str,
              out: Path, launched: float) -> Dict:
    from numpy.random import SeedSequence

    tracer = installation = None
    if mode == "trace":
        import layers
        wrapper_seconds = layers.wrapper_cost()
        tracer = layers.Tracer()
        installation = layers.install(tracer)
    work_dir = out / f"tmp-{wl.name}-{seed}"
    try:
        handles = []
        for k, sub_seed in enumerate(SeedSequence(seed).spawn(wl.inputs)):
            (work_dir / str(k)).mkdir(parents=True, exist_ok=True)
            handles.append(wl.prepare(wl, sub_seed, work_dir / str(k)))
        setup_end = time.perf_counter()
        report = {"setup_s": setup_end - launched}
        if mode == "setup":
            return report
        # (input, algorithm) -> the answer of its first join; the untimed
        # warm-up round (lazy imports, allocator, page cache) fills input 0.
        seen: Dict[Tuple[int, str], List] = {}
        for alg in wl.algorithms:
            r = wl.run_op(handles[0], alg)
            seen[0, alg] = answer(r.output_count, r.output_checksum,
                                  r.simulated_seconds)
        latencies: List[float] = []
        phase_wall: Dict[str, float] = defaultdict(float)
        problems: List[str] = []
        outcomes: List[Tuple[Tuple[int, str], bool]] = []
        start = time.perf_counter()
        deadline = start + seconds
        for rnd in itertools.count():
            round_start = time.perf_counter()
            k = rnd % wl.inputs
            for alg in wl.algorithms:
                op = len(outcomes)
                t0 = time.perf_counter()
                try:
                    with tracer.op(op) if tracer else nullcontext():
                        result = wl.run_op(handles[k], alg)
                except Exception as exc:  # counted; the loop goes on
                    problems.append(f"op {op} {alg}: {type(exc).__name__}: "
                                    f"{exc}")
                    outcomes.append(((k, alg), False))
                    continue
                latencies.append(time.perf_counter() - t0)
                got = answer(result.output_count, result.output_checksum,
                             result.simulated_seconds)
                first = seen.setdefault((k, alg), got)
                outcomes.append(((k, alg), got == first))
                if got != first:
                    problems.append(f"op {op} {alg}: answer {got} differs "
                                    f"from the first join's {first}")
                for phase in result.phases:
                    phase_wall[phase.name] += phase.wall_seconds
            now = time.perf_counter()
            enough = (len(outcomes) >= MIN_OPS
                      or now - start >= MAX_STRETCH * seconds)
            if now + (now - round_start) > deadline and enough:
                break
        wall = time.perf_counter() - start
        if installation is not None:
            installation.restore()
        wrong = _wrong_answers(wl, seed, seen, handles)
        problems += wrong.values()
        report.update(
            attempted=len(outcomes),
            failed=sum(1 for key, ok in outcomes if not ok or key in wrong),
            problems=problems, ops=len(latencies),
            answers={alg: [seen.get((k, alg)) for k in range(wl.inputs)]
                     for alg in wl.algorithms})
        if tracer is None:
            report["metrics"] = {
                "op_ms.p50": percentile(latencies, 50) * 1e3,
                "op_ms.p90": percentile(latencies, 90) * 1e3,
                "tuples_per_s": (wl.n_r + wl.n_s) * len(latencies) / wall,
                "peak_rss_mib": peak_rss_mib(),
            }
        else:
            report.update(_trace_report(
                wl.name, wl.layers, tracer, len(outcomes),
                (wl.n_r + wl.n_s) * TUPLE_BYTES, wrapper_seconds, setup_end,
                phase_wall, out))
        return report
    finally:
        if installation is not None:
            installation.restore()
        shutil.rmtree(work_dir, ignore_errors=True)


def _wrong_answers(wl: BatchWorkload, seed: int,
                   seen: Dict[Tuple[int, str], List],
                   handles: List) -> Dict[Tuple[int, str], str]:
    """(input, algorithm) -> why its answer is wrong.  Every algorithm must
    give the closed-form (count, checksum) of the input; on the pinned seed,
    exactly the pinned (count, checksum, simulated seconds)."""
    wrong = {}
    pinned = load_expected()[wl.name] if seed == PINNED_SEED else None
    oracles = {}
    for (k, alg), got in seen.items():
        if k not in oracles:
            oracles[k] = list(closed_form(wl.reference(handles[k])))
        if got[:2] != oracles[k]:
            wrong[k, alg] = (f"{alg} on input {k}: (count, checksum) "
                             f"{got[:2]} != closed form {oracles[k]}; every "
                             "such op failed")
        elif pinned is not None and pinned.get(alg, [])[k:k + 1] != [got]:
            wrong[k, alg] = (f"{alg} on input {k}: answer {got} != pinned "
                             f"{pinned.get(alg)} in expected.json; every such "
                             "op failed")
    return wrong


def _trace_report(name, expected_layers, tracer, n_ops, op_bytes,
                  wrapper_seconds, setup_end, phase_wall, out) -> Dict:
    import layers
    spans = tracer.records()
    window = [s for s in spans if s.op is not None and s.op < n_ops]
    metrics = layers.layer_metrics(spans, window, n_ops, op_bytes,
                                   wrapper_seconds, setup_end)
    metrics.update(phase_metrics(phase_wall, n_ops))
    metrics["serve.outside_engine_ms"] = 0.0
    layers.write_spans(spans, out / f"{name}.spans.jsonl")
    return {"metrics": metrics,
            "trace_problems": layers.check_trace(name, expected_layers,
                                                 window, metrics)}


#: Phase names of the five pipelines and the serve engine.
PHASES = ("partition", "join", "build", "probe", "sample", "nm-join",
          "detect", "split", "skew-join")


def phase_metrics(phase_wall: Dict[str, float], n_ops: int) -> Dict:
    unknown = set(phase_wall) - set(PHASES)
    if unknown:
        raise RuntimeError(f"phases {sorted(unknown)} are not in PHASES")
    return {f"phase.{p}.wall_s": phase_wall.get(p, 0.0) / max(n_ops, 1)
            for p in PHASES}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_DIR))
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload in BATCH:
        report = run_batch(BATCH[args.workload], args.seed, args.seconds,
                           args.mode, args.out, args.launched)
    else:
        import serveload
        report = serveload.run_serve(args.seed, args.seconds, args.mode,
                                     args.out, args.launched)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

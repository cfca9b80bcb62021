"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``    — join one generated workload with one or all algorithms.
  ``--spill-dir`` / ``--memory-budget`` engage the crash-safe
  out-of-core spill plane (bit-identical to the in-RAM path);
  ``--resume DIR`` finishes an interrupted spilled run from its
  durable manifest + checkpoint ledger.  ``--stream DIR`` runs
  out-of-core end to end: the workload is streamed into an on-disk
  relation store chunk by chunk and joined with columns paging in
  lazily instead of ever materializing in RAM.
* ``sweep``  — Figure-4-style zipf sweep.
* ``bench``  — regenerate one of the paper's tables/figures (simulated
  seconds; wall time is measured by ``perf/run.py``).
* ``diff``   — backend differential (scalar vs vector vs parallel)
  across the full algorithm x dataset grid (exit 1 on any divergence).
  ``--spill`` runs the spill column instead: every backend re-joins
  each dataset under a forced memory budget and must match the in-RAM
  reference exactly.  ``--oocore`` runs the out-of-core column: every
  dataset is streamed to a (compressed) on-disk relation store and
  every backend re-joins it with columns paging in lazily.
* ``trace``  — per-phase breakdown traces: run-and-render, export to
  JSONL, re-render saved artifacts, and consistency-check phase sums.
* ``chaos``  — seeded fault-injection sweep: every fault class against
  every algorithm, verifying exact recovery or a typed failure.
  ``--serve`` points the storm at the daemon instead: concurrent
  clients with seeded fault scripts (crashes, slow morsels, deadlines,
  circuit-opening build failures, mid-stream disconnects), asserting
  every request ends bit-identical or with a typed error and the
  daemon's post-sweep health is green — the serve-chaos CI job.
  ``--spill`` points the storm at the out-of-core plane instead:
  seeded disk faults (torn writes, ENOSPC, corrupt chunks, slow IO),
  ladder exhaustion, and a SIGKILL-and-resume sweep, asserting every
  scenario ends bit-identical after recovery/resume or with a typed
  error — the spill-chaos CI job.  Every mode runs through one runner
  (:func:`repro.faults.chaos.run_checks`), which exits 1 when any check
  fails.  ``--artifact-dir DIR`` writes the check ledger to
  ``DIR/chaos-checks.json`` in every mode.  A request the sweep cannot
  honour exits 2 up front: fewer tuples than the pipeline (8192) or
  spill (4096) schedule needs, an unknown algorithm, or a non-spilling
  algorithm with ``--spill``.
* ``serve``  — join-as-a-service daemon: NDJSON protocol over a local
  socket, hot LRU cache of built hash tables, admission control,
  streamed probe chunks, per-request deadlines, a circuit-breaking
  build cache, and graceful SIGTERM drain.  ``--smoke`` runs the
  end-to-end serving scenario (daemon + client, overlapping requests,
  injected fault) in-process and exits — the serve-smoke CI job.
* ``plan``   — explain the planning rule's pick for a workload:
  cbase-npj, or cbase when a memory budget is below the input
  (:mod:`repro.plan`).  ``--gate`` runs every algorithm on vector and
  parallel over the diff grid and fails when the rule's pick is over
  2x the measured best or the auto run is not bit-identical to the
  forced one — the plan-gate CI job.  ``repro run --auto`` runs the
  pick.

Every command refuses a request it cannot honour up front: a
:class:`~repro.errors.ConfigError` or
:class:`~repro.errors.WorkloadError` prints one ``error: ...`` line to
stderr and exits 2.  Any other library error (a
:class:`~repro.errors.ReproError`) prints the same one line and exits 1.

Examples::

    python -m repro run --theta 1.0 --tuples 262144 --algorithm csh
    python -m repro run --theta 0.9 --all --counters
    python -m repro sweep --tuples 1048576 --analytic
    python -m repro bench table1
    python -m repro run --backend parallel --theta 1.0 --tuples 262144
    python -m repro diff --tuples 4096
    python -m repro diff --backends vector,parallel
    python -m repro trace --algorithm gsh --theta 1.0 --tuples 65536
    python -m repro trace --all --out traces.jsonl --check
    python -m repro trace --load traces.jsonl --check
    python -m repro chaos --seed 42 --tuples 8192 --theta 1.0
    python -m repro chaos --serve --seed 7 --clients 4 --requests 20 \
        --artifact-dir chaos-art
    python -m repro run --tuples 262144 --memory-budget 1048576 \
        --spill-dir /tmp/spill --algorithm cbase
    python -m repro run --resume /tmp/spill
    python -m repro diff --spill --tuples 2048
    python -m repro run --stream /tmp/oocore --tuples 262144 --theta 0.5
    python -m repro diff --oocore --tuples 2048
    python -m repro chaos --spill --seed 42 --artifact-dir chaos-art
    python -m repro serve --port 7654 --trace-out serve-trace.jsonl
    python -m repro serve --smoke --trace-out smoke-trace.jsonl
    python -m repro diff --served --tuples 2048
    python -m repro plan --tuples 65536
    python -m repro plan --gate --tuples 131072 --out plan-artifacts
    python -m repro run --auto --theta 1.0 --tuples 262144
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import ALGORITHMS, make_join, run_all
from repro.analysis.analytic import ANALYTIC_EXECUTORS, AnalyticWorkload
from repro.analysis.verify import verify_all
from repro.bench.experiments import (
    run_detection,
    run_figure1,
    run_figure4,
    run_scaleup,
    run_table1,
)
from repro.bench.tables import render_series
from repro.data.io import load_join_input, save_join_input
from repro.data.stream import stream_zipf_input
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError, ReproError, WorkloadError
from repro.exec.backend import (
    BACKENDS,
    BACKEND_ENV,
    current_backend,
    use_backend,
    validate_backend,
)
from repro.exec.differential import (
    differential_matrix,
    oocore_differential,
    render_differential,
    spill_differential,
)
from repro.exec.report import comparison_report, result_report
from repro.exec.serialize import append_results_jsonl, results_from_jsonl_file
from repro.faults.chaos import pipeline_source, run_checks
from repro.faults.plan import DEFAULT_CHAOS_ALGORITHMS, SPILL_ALGORITHM_NAMES
from repro.faults.report import verify_result_faults
from repro.obs import render_trace, verify_result_trace
from repro.plan import (
    DEFAULT_GATE_TUPLES,
    DEFAULT_REGRET_THRESHOLD,
    choose,
    run_plan_gate,
    verify_result_plan,
)
from repro.serve.admission import AdmissionController, DEFAULT_MORSEL_TUPLES
from repro.serve.cache import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_CIRCUIT_RESET_SECONDS,
    DEFAULT_CIRCUIT_THRESHOLD,
)
from repro.serve.chaos import serve_source
from repro.serve.diff import served_differential
from repro.serve.engine import ServeEngine
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import DEFAULT_DRAIN_SECONDS, DEFAULT_HOST, ServeServer
from repro.serve.smoke import run_smoke
from repro.store import (
    CODEC_ENV,
    MEMORY_BUDGET_ENV,
    PAGE_CACHE_ENV,
    SPILL_DIR_ENV,
    dataset_bytes,
    open_join_input,
    open_spill_session,
    resume_run,
    write_run_state,
)
from repro.store.chaos import spill_source

BENCH_COMMANDS = {
    "fig1": run_figure1,
    "fig4": run_figure4,
    "table1": run_table1,
    "scaleup": run_scaleup,
    "detection": run_detection,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skew-conscious hash joins (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="join one generated workload")
    run_p.add_argument("--tuples", "-n", type=int, default=1 << 17,
                       help="tuples per table (default 131072)")
    run_p.add_argument("--theta", "-t", type=float, default=0.9,
                       help="zipf factor (default 0.9)")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS),
                       default=None,
                       help="algorithm to run (default csh)")
    run_p.add_argument("--all", action="store_true",
                       help="run every algorithm and compare")
    run_p.add_argument("--auto", action="store_true",
                       help="let the planning rule choose the algorithm "
                            "(cbase-npj, or cbase under a memory budget "
                            "below the input); bit-identical to forcing "
                            "the pick by hand (not with --algorithm, "
                            "--all, --analytic or --stream)")
    run_p.add_argument("--counters", action="store_true",
                       help="print the operation counters")
    run_p.add_argument("--analytic", action="store_true",
                       help="use the histogram-driven paper-scale path")
    run_p.add_argument("--load", metavar="FILE",
                       help="join a saved .npz workload instead of "
                            "generating one")
    run_p.add_argument("--save", metavar="FILE",
                       help="save the generated workload to a .npz file")
    run_p.add_argument("--backend", choices=BACKENDS,
                       help="execution backend for this run (default: "
                            f"${BACKEND_ENV}, else vector)")
    run_p.add_argument("--memory-budget", type=int, metavar="BYTES",
                       help="resident-bytes budget for the partitioned "
                            "join inputs; partitions beyond it spill to "
                            "the durable chunk store (default: "
                            f"${MEMORY_BUDGET_ENV}, else no spilling)")
    run_p.add_argument("--spill-dir", metavar="DIR",
                       help="directory for spilled chunks, the manifest, "
                            "and the checkpoint ledger (default: "
                            f"${SPILL_DIR_ENV}, else an ephemeral temp "
                            "dir); a named dir makes the run resumable")
    run_p.add_argument("--spill-strict", action="store_true",
                       help="treat the memory budget as hard: an "
                            "unwritable chunk is a typed SpillError "
                            "instead of degrading back to RAM")
    run_p.add_argument("--resume", metavar="DIR",
                       help="finish the interrupted spilled run recorded "
                            "in DIR (revalidates chunks, discards torn "
                            "ledger tails, re-runs only unfinished "
                            "partition pairs)")
    run_p.add_argument("--stream", metavar="DIR",
                       help="run out-of-core: stream the zipf workload "
                            "into an on-disk relation store at DIR "
                            "chunk by chunk (an existing store there is "
                            "reused), then join it with columns paging "
                            "in lazily instead of materializing in RAM; "
                            f"${CODEC_ENV} picks the chunk codec and "
                            f"${PAGE_CACHE_ENV} the per-column segment "
                            "cache depth")

    sweep_p = sub.add_parser("sweep", help="zipf sweep across algorithms")
    sweep_p.add_argument("--tuples", "-n", type=int, default=1 << 16)
    sweep_p.add_argument("--seed", type=int, default=42)
    sweep_p.add_argument("--analytic", action="store_true")
    sweep_p.add_argument("--thetas", type=str,
                         default="0,0.25,0.5,0.75,1.0",
                         help="comma-separated zipf factors")

    bench_p = sub.add_parser("bench",
                             help="regenerate one of the paper's experiments")
    bench_p.add_argument("experiment", choices=sorted(BENCH_COMMANDS),
                         help="paper experiment to regenerate")

    diff_p = sub.add_parser(
        "diff", help="scalar-vs-vector differential across all algorithms")
    diff_p.add_argument("--tuples", "-n", type=int, default=1 << 11,
                        help="tuples per table (default 2048)")
    diff_p.add_argument("--seed", type=int, default=42)
    diff_p.add_argument("--algorithms", type=str, default="",
                        help="comma-separated subset (default: all)")
    diff_p.add_argument("--backends", type=str, default="",
                        help="comma-separated backends to compare, first "
                             "one is the reference (default: all of "
                             f"{','.join(BACKENDS)})")
    diff_p.add_argument("--served", action="store_true",
                        help="run the served-vs-direct leg instead: diff "
                             "cached, morsel-streamed serve answers "
                             "against direct pipeline runs (plus the "
                             "cold/warm structural contract)")
    diff_p.add_argument("--spill", action="store_true",
                        help="run the spill column instead: every "
                             "backend re-joins each dataset under a "
                             "forced memory budget and must match the "
                             "in-RAM reference bit for bit")
    diff_p.add_argument("--oocore", action="store_true",
                        help="run the out-of-core column instead: every "
                             "dataset is streamed to an on-disk relation "
                             "store (compressed on the skewed case) and "
                             "every backend re-joins it with columns "
                             "paging in lazily, which must match the "
                             "in-RAM reference bit for bit")

    trace_p = sub.add_parser(
        "trace", help="render per-phase breakdown traces")
    trace_p.add_argument("--tuples", "-n", type=int, default=1 << 16,
                         help="tuples per table (default 65536)")
    trace_p.add_argument("--theta", "-t", type=float, default=0.9,
                         help="zipf factor (default 0.9)")
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS),
                         default="csh")
    trace_p.add_argument("--all", action="store_true",
                         help="trace every algorithm")
    trace_p.add_argument("--load", metavar="FILE",
                         help="render traces from a JSONL artifact instead "
                              "of running")
    trace_p.add_argument("--out", metavar="FILE",
                         help="append the traced results to a JSONL "
                              "artifact")
    trace_p.add_argument("--check", action="store_true",
                         help="verify each trace's phase sums against the "
                              "reported total (exit 1 on mismatch)")
    trace_p.add_argument("--no-metrics", action="store_true",
                         help="omit the metrics block from the rendering")

    chaos_p = sub.add_parser(
        "chaos", help="seeded fault-injection sweep across the pipelines")
    chaos_p.add_argument("--tuples", "-n", type=int, default=1 << 13,
                         help="tuples per table (default 8192)")
    chaos_p.add_argument("--theta", "-t", type=float, default=1.0,
                         help="zipf factor (default 1.0 — heavy skew)")
    chaos_p.add_argument("--seed", type=int, default=42,
                         help="seed for both the workload and the fault "
                              "plan (default 42)")
    chaos_p.add_argument("--algorithms", type=str,
                         help="comma-separated algorithms to sweep "
                              "(default: "
                              f"{','.join(DEFAULT_CHAOS_ALGORITHMS)}; with "
                              f"--spill: {','.join(SPILL_ALGORITHM_NAMES)})")
    chaos_p.add_argument("--serve", action="store_true",
                         help="run the chaos-under-load storm against an "
                              "in-process daemon instead of the pipelines "
                              "(exit 0 = every request bit-identical or "
                              "typed, daemon healthy afterwards)")
    chaos_p.add_argument("--clients", type=int, default=4,
                         help="concurrent clients for --serve (default 4)")
    chaos_p.add_argument("--requests", type=int, default=20,
                         help="probe requests spread across the --serve "
                              "clients (default 20)")
    chaos_p.add_argument("--spill", action="store_true",
                         help="run the disk-fault + SIGKILL/resume sweep "
                              "against the out-of-core spill plane "
                              "instead (exit 0 = every scenario ends "
                              "bit-identical after recovery/resume or "
                              "with a typed error)")
    chaos_p.add_argument("--artifact-dir", metavar="DIR",
                         help="write the check ledger (plus the post-storm "
                              "health with --serve) to DIR/chaos-checks."
                              "json; with --spill also copy each kill "
                              "point's manifest and checkpoint ledger "
                              "into DIR (the CI artifact)")

    serve_p = sub.add_parser(
        "serve", help="run the join-as-a-service daemon")
    serve_p.add_argument("--host", default=DEFAULT_HOST,
                         help=f"bind address (default {DEFAULT_HOST})")
    serve_p.add_argument("--port", type=int, default=0,
                         help="TCP port (default 0 = ephemeral, printed "
                              "on startup)")
    serve_p.add_argument("--cache-entries", type=int,
                         default=DEFAULT_CACHE_ENTRIES,
                         help="LRU bound on cached build-side hash tables "
                              f"(default {DEFAULT_CACHE_ENTRIES})")
    serve_p.add_argument("--max-inflight", type=int, default=8,
                         help="concurrent requests executing (default 8)")
    serve_p.add_argument("--max-queue", type=int, default=16,
                         help="requests allowed to wait beyond the "
                              "in-flight bound (default 16)")
    serve_p.add_argument("--max-morsels", type=int, default=4096,
                         help="per-request morsel budget; larger probes "
                              "are refused (default 4096)")
    serve_p.add_argument("--morsel-tuples", type=int,
                         default=DEFAULT_MORSEL_TUPLES,
                         help="tuples per streamed probe chunk "
                              f"(default {DEFAULT_MORSEL_TUPLES})")
    serve_p.add_argument("--drain-seconds", type=float,
                         default=DEFAULT_DRAIN_SECONDS,
                         help="grace in-flight probes get on SIGTERM/"
                              "shutdown before cooperative cancellation "
                              f"(default {DEFAULT_DRAIN_SECONDS:g})")
    serve_p.add_argument("--circuit-threshold", type=int,
                         default=DEFAULT_CIRCUIT_THRESHOLD,
                         help="consecutive cold-build failures that open a "
                              "relation's circuit "
                              f"(default {DEFAULT_CIRCUIT_THRESHOLD})")
    serve_p.add_argument("--circuit-reset-seconds", type=float,
                         default=DEFAULT_CIRCUIT_RESET_SECONDS,
                         help="seconds an open circuit waits before "
                              "admitting a half-open trial build "
                              f"(default {DEFAULT_CIRCUIT_RESET_SECONDS:g})")
    serve_p.add_argument("--trace-out", metavar="FILE",
                         help="append every completed probe's JoinResult "
                              "(trace + metrics + fault reports) to a "
                              "JSONL artifact")
    serve_p.add_argument("--smoke", action="store_true",
                         help="run the end-to-end smoke scenario against "
                              "an in-process daemon and exit (0 = all "
                              "checks passed)")
    serve_p.add_argument("--tuples", "-n", type=int, default=1 << 12,
                         help="tuples per side for --smoke (default 4096)")
    serve_p.add_argument("--theta", "-t", type=float, default=1.0,
                         help="zipf factor for --smoke (default 1.0)")
    serve_p.add_argument("--seed", type=int, default=42,
                         help="workload seed for --smoke (default 42)")

    plan_p = sub.add_parser(
        "plan",
        help="explain the planning rule's pick, or gate its regret (CI)")
    plan_p.add_argument("--tuples", "-n", type=int, default=None,
                        help="tuples per table (default 65536; "
                             f"{DEFAULT_GATE_TUPLES} with --gate)")
    plan_p.add_argument("--seed", type=int, default=42,
                        help="dataset seed for --gate (default 42)")
    plan_p.add_argument("--load", metavar="FILE",
                        help="plan a saved .npz workload instead of "
                             "generating one")
    plan_p.add_argument("--gate", action="store_true",
                        help="run the regret gate over the diff grid: "
                             "measure every algorithm on vector and "
                             "parallel, exit 1 if the pick exceeds "
                             "--regret-threshold times the observed "
                             "best, or if an auto run is not "
                             "bit-identical to the forced one")
    plan_p.add_argument("--gate-repeats", type=int, default=2,
                        help="measurement repeats per candidate in the "
                             "gate (default 2)")
    plan_p.add_argument("--regret-threshold", type=float,
                        default=DEFAULT_REGRET_THRESHOLD,
                        help="regret factor the gate tolerates "
                             f"(default {DEFAULT_REGRET_THRESHOLD})")
    plan_p.add_argument("--out", metavar="DIR",
                        help="with --gate: write plan-candidates.json "
                             "and regret-report.json artifacts to DIR")
    return parser


def _cmd_run(args) -> int:
    if args.resume:
        # The run state pins the backend and workload; CLI workload
        # flags are ignored on resume by design.
        result = resume_run(args.resume)
        print(result_report(result, counters=args.counters))
        return 0
    if args.auto and (args.algorithm is not None or args.all
                      or args.analytic or args.stream):
        print("error: --auto chooses the algorithm itself; drop "
              "--algorithm/--all/--analytic/--stream (force the pick by "
              "hand to compare — the answers are bit-identical)",
              file=sys.stderr)
        return 2
    if args.algorithm is None and not args.auto:
        args.algorithm = "csh"
    if args.backend:
        with use_backend(args.backend):
            args.backend = None
            return _cmd_run(args)
    if args.stream:
        return _cmd_run_stream(args)
    if args.analytic:
        wl = AnalyticWorkload.from_zipf(args.tuples, args.tuples,
                                        args.theta, seed=args.seed)
        if args.all:
            results = [ANALYTIC_EXECUTORS[name](wl)
                       for name in sorted(ALGORITHMS)]
            print(comparison_report(results, baseline="cbase"))
        else:
            print(result_report(ANALYTIC_EXECUTORS[args.algorithm](wl),
                                counters=args.counters))
        return 0
    if args.load:
        join_input = load_join_input(args.load)
    else:
        workload = ZipfWorkload(args.tuples, args.tuples, args.theta,
                                seed=args.seed)
        join_input = workload.generate()
    if args.save:
        save_join_input(join_input, args.save)
        print(f"workload saved to {args.save}")
    if args.all:
        if args.spill_dir or args.memory_budget is not None \
                or args.spill_strict:
            print("error: --all cannot be combined with the spill "
                  "options; spill one algorithm at a time",
                  file=sys.stderr)
            return 2
        results = run_all(join_input)
        verify_all(results.values(), join_input)
        print(comparison_report(list(results.values()), baseline="cbase"))
    else:
        pick = None
        if args.auto:
            pick = choose(join_input, args.memory_budget)
            args.algorithm = pick.algorithm
            print(pick.render())
        with open_spill_session(
                args.spill_dir, args.memory_budget,
                strict=True if args.spill_strict else None) as session:
            if session is not None:
                # Durable run recipe first, so a crash at ANY later
                # point leaves a resumable directory behind.
                workload_state = (
                    {"kind": "file", "path": args.load} if args.load
                    else {"kind": "zipf", "n_r": args.tuples,
                          "n_s": args.tuples, "theta": args.theta,
                          "seed": args.seed})
                write_run_state(session.directory, {
                    "algorithm": args.algorithm,
                    "backend": current_backend(),
                    "budget_bytes": session.budget_bytes,
                    "strict": session.strict,
                    "chunk_bytes": session.chunk_bytes,
                    "codec": session.store.codec,
                    "workload": workload_state,
                })
            result = (pick.run(join_input) if pick is not None
                      else make_join(args.algorithm).run(join_input))
        print(result_report(result, counters=args.counters))
    return 0


def _cmd_run_stream(args) -> int:
    """``repro run --stream DIR``: join straight from a relation store."""
    from pathlib import Path

    if (args.all or args.analytic or args.load or args.save
            or args.spill_dir or args.spill_strict
            or args.memory_budget is not None):
        print("error: --stream joins one algorithm from its on-disk "
              "relation store; drop --all/--analytic/--load/--save and "
              "the spill-session options", file=sys.stderr)
        return 2
    directory = Path(args.stream)
    if not (directory / "manifest.json").exists():
        stream_zipf_input(directory, args.tuples, args.tuples,
                          args.theta, seed=args.seed)
        print(f"streamed zipf(theta={args.theta}) workload "
              f"({args.tuples} x {args.tuples} tuples) into {directory}")
    join_input, store = open_join_input(directory)
    try:
        result = make_join(args.algorithm).run(join_input)
    finally:
        store.close()
    print(f"out-of-core: {dataset_bytes(directory)} dataset bytes paged "
          f"lazily from {directory} (codec {store.codec})")
    print(result_report(result, counters=args.counters))
    return 0


def _cmd_sweep(args) -> int:
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    if not thetas:
        raise ConfigError(f"--thetas {args.thetas!r} names no zipf factor")
    algorithms = sorted(ALGORITHMS)
    series = {alg: {} for alg in algorithms}
    for theta in thetas:
        if args.analytic:
            wl = AnalyticWorkload.from_zipf(args.tuples, args.tuples,
                                            theta, seed=args.seed)
            for alg in algorithms:
                series[alg][theta] = (
                    ANALYTIC_EXECUTORS[alg](wl).simulated_seconds)
        else:
            join_input = ZipfWorkload(args.tuples, args.tuples, theta,
                                      seed=args.seed).generate()
            results = run_all(join_input)
            for alg, res in results.items():
                series[alg][theta] = res.simulated_seconds
    print(render_series(series, thetas,
                        f"zipf sweep — {args.tuples} tuples per table"))
    return 0


def _cmd_bench(args) -> int:
    BENCH_COMMANDS[args.experiment]()
    return 0


def _cmd_plan(args) -> int:
    if args.gate:
        report = run_plan_gate(
            n_tuples=(args.tuples if args.tuples is not None
                      else DEFAULT_GATE_TUPLES),
            seed=args.seed,
            repeats=args.gate_repeats,
            threshold=args.regret_threshold,
            out_dir=args.out,
        )
        print(report.render())
        if args.out:
            print(f"artifacts written to {args.out}/plan-candidates.json "
                  f"and {args.out}/regret-report.json")
        return 0 if report.ok else 1
    if args.load:
        join_input = load_join_input(args.load)
    else:
        # The rule reads only the input's size and the budget, so the
        # generated workload's skew cannot change the pick.
        n_tuples = args.tuples if args.tuples is not None else 1 << 16
        join_input = ZipfWorkload(n_tuples, n_tuples, 0.0,
                                  seed=args.seed).generate()
    print(f"plan — {len(join_input.r)} x {len(join_input.s)} tuples")
    print(choose(join_input).render())
    return 0


def _cmd_diff(args) -> int:
    algorithms = ([a.strip() for a in args.algorithms.split(",") if a.strip()]
                  or None)
    if sum(1 for flag in (args.served, args.spill, args.oocore)
           if flag) > 1:
        print("error: --served, --spill, and --oocore are mutually "
              "exclusive", file=sys.stderr)
        return 2
    backends = [validate_backend(b) for b in args.backends.split(",")
                if b.strip()]
    if args.served:
        if backends:
            raise ConfigError(
                "--served diffs served against direct runs on the ambient "
                f"backend; drop --backends (set {BACKEND_ENV} instead)")
        reports = served_differential(n=args.tuples, seed=args.seed,
                                      algorithms=algorithms)
        print(render_differential(reports))
        return 0 if all(r.ok for r in reports) else 1
    if args.spill:
        reports = spill_differential(n=args.tuples, seed=args.seed,
                                     algorithms=algorithms,
                                     backends=tuple(backends) or BACKENDS)
        print(render_differential(reports))
        return 0 if all(r.ok for r in reports) else 1
    if args.oocore:
        reports = oocore_differential(n=args.tuples, seed=args.seed,
                                      algorithms=algorithms,
                                      backends=tuple(backends) or BACKENDS)
        print(render_differential(reports))
        return 0 if all(r.ok for r in reports) else 1
    if len(backends) == 1:
        raise ConfigError(
            f"the backend differential needs two or more backends to "
            f"compare; got only {backends[0]!r}")
    reports = differential_matrix(n=args.tuples, seed=args.seed,
                                  algorithms=algorithms,
                                  backends=tuple(backends) or BACKENDS)
    print(render_differential(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_trace(args) -> int:
    if args.load:
        try:
            # Tolerant: a torn trailing line (crash mid-append) is skipped
            # with a warning rather than failing the whole artifact.
            results = results_from_jsonl_file(args.load, tolerant=True)
        except OSError as exc:
            print(f"error: cannot read {args.load}: {exc}", file=sys.stderr)
            return 1
    else:
        join_input = ZipfWorkload(args.tuples, args.tuples, args.theta,
                                  seed=args.seed).generate()
        if args.all:
            results = list(run_all(join_input).values())
        else:
            results = [make_join(args.algorithm).run(join_input)]
    failures = []
    first = True
    for result in results:
        if not first:
            print()
        first = False
        if result.trace is None:
            print(f"trace: {result.algorithm}  (result carries no trace)")
        else:
            print(render_trace(result.trace, metrics=not args.no_metrics))
        if args.check:
            for error in (verify_result_trace(result),
                          verify_result_faults(result),
                          verify_result_plan(result)):
                if error is not None:
                    failures.append(error)
    if args.out and not args.load:
        n = append_results_jsonl(results, args.out)
        print(f"\n{n} trace record(s) appended to {args.out}")
    if args.check:
        print()
        if failures:
            for error in failures:
                print(f"TRACE CHECK FAILED: {error}")
            return 1
        print(f"trace check OK: {len(results)} result(s), every phase sum "
              "matches its reported total, every fault report is "
              "consistent with its trace counters, and every plan stamp "
              "names the algorithm that ran")
    return 0


def _cmd_chaos(args) -> int:
    if args.serve and args.spill:
        print("error: --serve and --spill are mutually exclusive",
              file=sys.stderr)
        return 2
    algorithms = [a.strip() for a in (args.algorithms or "").split(",")
                  if a.strip()]
    if args.spill:
        title, source = "spill chaos", spill_source(
            args.tuples, args.theta, args.seed,
            algorithms or SPILL_ALGORITHM_NAMES, args.artifact_dir)
    elif args.serve:
        title, source = "serve chaos", serve_source(
            args.tuples, args.theta, args.seed, args.clients,
            args.requests)
    else:
        title, source = "chaos sweep", pipeline_source(
            args.tuples, args.theta, args.seed,
            algorithms or DEFAULT_CHAOS_ALGORITHMS)
    return run_checks(title, source, args.artifact_dir)


def _cmd_serve(args) -> int:
    if args.smoke:
        return run_smoke(n=args.tuples, theta=args.theta, seed=args.seed,
                         trace_out=args.trace_out)
    import asyncio

    engine = ServeEngine(
        cache_entries=args.cache_entries,
        admission=AdmissionController(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            max_morsels=args.max_morsels,
            morsel_tuples=args.morsel_tuples,
        ),
        circuit_threshold=args.circuit_threshold,
        circuit_reset_seconds=args.circuit_reset_seconds,
    )

    async def serve() -> None:
        import signal

        server = ServeServer(engine=engine, host=args.host, port=args.port,
                             trace_path=args.trace_out,
                             drain_seconds=args.drain_seconds)
        await server.start()
        # SIGTERM/SIGINT trigger the graceful drain: stop accepting,
        # give in-flight probes drain_seconds, then cancel them with
        # typed errors instead of dying mid-write.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without signal handler support
        print(f"repro serve listening on {server.address} "
              f"(NDJSON protocol v{PROTOCOL_VERSION}, "
              f"cache {args.cache_entries} entries, "
              f"drain {args.drain_seconds:g}s)", flush=True)
        await server.serve_until_shutdown()
        await server.close()
        stats = engine.stats()
        print(f"repro serve: shutdown after {stats['completed']} completed "
              f"request(s), {stats['cache']['hits']} cache hit(s)")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        return 130
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "plan":
            return _cmd_plan(args)
    except BrokenPipeError:  # output truncated by a closed pipe (| head)
        return 0
    except (ConfigError, WorkloadError) as exc:  # refused up front
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

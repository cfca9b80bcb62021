"""The repository's benchmark: four workloads, end to end and per layer.

    python perf/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                       [--out DIR]
    python perf/run.py --compare A.jsonl B.jsonl

Each workload runs in a fresh child process (``perf/workloads.py``), so
peak RSS and every cache belong to that workload alone.  Without
``--trace`` the run reports the end-to-end metrics of ``BENCHMARK.json``;
``setup_s`` is the median of five fresh-process setups (the measured
run's own plus four setup-only children).  With ``--trace`` it reports the
per-layer metrics from a run under the wrappers of ``perf/layers.py``.
Every answer is checked.  Each metric is printed by name with its unit,
each run is appended to ``<out>/runs.jsonl`` (the input of
``--compare``), and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every answer was right and the run was valid.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import stats
from workloads import MIN_OPS, WORKLOADS, workload_env

ROOT = Path(__file__).resolve().parent.parent
PERF_DIR = ROOT / "perf"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = PERF_DIR / "out"
#: Fresh-process setups whose median is ``setup_s``.
SETUP_REPEATS = 5
#: Each workload run must finish within this many seconds.
TIME_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_benchmark() -> Dict:
    with open(BENCHMARK_PATH) as fh:
        return json.load(fh)


def child_env(workload: str) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` setting, plus the
    workload's own settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workload_env(workload))
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, out: Path,
          deadline: float) -> Dict:
    """Run one child to completion; returns its JSON report."""
    launched = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PERF_DIR / "workloads.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--mode", mode, "--out", str(out),
         "--launched", repr(launched)],
        cwd=ROOT, env=child_env(workload), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} ({mode}) ran past the "
                             f"{TIME_BUDGET_S:.0f} s budget") from None
    finally:
        # Anything the child left behind in its session goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"{workload} ({mode}) exited with "
                             f"{proc.returncode}:\n{tail}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out: Path, specs: List[Dict], deadline: float) -> Dict:
    """One workload run: children, metrics, checks; returns the record."""
    setups = [] if trace else [
        spawn(workload, seed, seconds, "setup", out, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)]
    report = spawn(workload, seed, seconds, "trace" if trace else "measure",
                   out, deadline)
    values = dict(report["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups + [report["setup_s"]])
    problems = report["problems"] + report.get("trace_problems", [])
    missing = [s["name"] for s in specs if values.get(s["name"]) is None]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"], "failed": report["failed"],
        "ops": report["ops"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs if s["name"] not in missing},
        "extras": report.get("extras", {}), "answers": report["answers"],
        "problems": problems,
    }


def print_record(record: Dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end to end"
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  {mode}: {record['attempted']} ops "
          f"attempted, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in record["extras"].items():
        if value is not None:
            print(f"  ({name:<26} {value:>16.6g})")
    if not record["trace"] and record["ops"] < MIN_OPS:
        print(f"  note: {record['ops']} timed ops; op_ms.p90 has "
              f"{stats.beyond(record['ops'], 90)} samples beyond it")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(summary([record])), flush=True)


def summary(records: List[Dict]) -> Dict:
    """The result object; metric names carry the workload when several
    workloads ran."""
    prefix = len(records) > 1
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{name}" if prefix else name): metric
                    for r in records for name, metric in r["metrics"].items()},
    }


def read_runs(path: Path) -> List[Dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def print_comparison(path_a: Path, path_b: Path, benchmark: Dict) -> int:
    specs = {s["name"]: s
             for s in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = stats.compare(read_runs(path_a), read_runs(path_b), specs)
    print(f"{'workload':<17} {'metric':<28} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<17} {row['metric']:<28} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {row['worse_by']:>+9.3f} "
              f"{row['spread']:>7.3f} {bound:>6}  {row['verdict']}"
              f"  (n={row['runs_a']}/{row['runs_b']} {row['unit']})")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark (see perf/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for runs.jsonl and spans")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two runs.jsonl files and exit")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.compare:
        return print_comparison(*args.compare, benchmark)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    seconds = args.seconds or float(benchmark["run_seconds"])
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in args.workload or WORKLOADS:
        try:
            record = run_workload(workload, args.seed, seconds,
                                  bool(args.trace), args.out, specs,
                                  time.perf_counter() + TIME_BUDGET_S)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with open(args.out / "runs.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        print_record(record)
        records.append(record)
    if len(records) > 1:
        print(json.dumps(summary(records)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

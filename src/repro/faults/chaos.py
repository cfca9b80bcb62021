"""The one chaos runner behind ``repro chaos`` and ``repro serve --smoke``.

Every harness is a *scenario source*: a :class:`Source` names its mode
and workload and records into one :class:`Checks` ledger.
:func:`run_checks` runs a source, turns any exception that escapes it
into a failed check, prints the ledger, writes one ``chaos-checks.json``
artifact and returns the process exit code.  The sources are:

* ``pipeline`` (:func:`pipeline_source`, here) — a seeded
  :class:`~repro.faults.plan.FaultPlan` swept over the four join
  pipelines, one fault per run so a failure is attributable;
* ``serve`` (:mod:`repro.serve.chaos`) — a concurrent fault storm
  against the daemon, and ``smoke`` (:mod:`repro.serve.smoke`) — the
  serving contract end to end;
* ``spill`` (:mod:`repro.store.chaos`) — disk faults and SIGKILL/resume
  on the out-of-core spill plane.

Every faulted run must end in one of exactly two states, each checked
by one function here:

* :func:`expect_identical` — the run completes with an answer identical
  to the fault-free baseline (count + order-independent checksum), an
  injected fault recorded on ``JoinResult.faults`` when one was planted,
  the reports mirrored into the trace metrics (checked by
  :func:`~repro.faults.report.verify_result_faults`) and the trace still
  summing to the reported total; or
* :func:`expect_typed` — the run raises a
  :class:`~repro.errors.ReproError` subclass carrying the episode's
  :class:`FailureReport`, never a bare traceback.

Artifact-corruption specs exercise the serialization plane instead: a
torn JSONL append (simulated crash mid-write) must fail typed, be
skipped by the tolerant loader, and be repaired by an atomic rewrite
recorded as a post-hoc report.
"""

from __future__ import annotations

import json
import os
import tempfile
import traceback
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.data.relation import JoinInput
from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError, ReproError
from repro.exec.backend import current_backend
from repro.exec.result import JoinResult
from repro.faults.plan import (
    ARTIFACT_CORRUPTION,
    DEFAULT_CHAOS_ALGORITHMS,
    FaultPlan,
    FaultSpec,
    seeded_plan,
)
from repro.faults.report import (
    FailureReport,
    attach_posthoc_report,
    verify_result_faults,
)
from repro.faults.scope import activate_plan, fault_scope
from repro.obs.trace import verify_result_trace

#: File every chaos mode writes into its ``--artifact-dir``.
CHECKS_ARTIFACT = "chaos-checks.json"

#: Smallest ``--tuples`` the pipeline sweep accepts.  The seeded plans'
#: occurrence windows assume every algorithm reaches >= 2 partition
#: pairs; at 4096 tuples Gbase fits one partition and task occurrence 2
#: never fires.
PIPELINE_MIN_TUPLES = 8192


class Checks:
    """Ordered pass/fail ledger a scenario source records into."""

    def __init__(self):
        self.checks: List[Tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def equal(self, name: str, got, want) -> bool:
        return self.record(name, got == want, f"got {got!r}, want {want!r}")

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render(self, title: str) -> str:
        lines = []
        for name, ok, detail in self.checks:
            status = "ok  " if ok else "FAIL"
            suffix = f"  ({detail})" if detail and not ok else ""
            lines.append(f"  {status}  {name}{suffix}")
        n_bad = sum(1 for _, ok, _ in self.checks if not ok)
        lines.append("")
        if n_bad:
            lines.append(f"{title}: {n_bad}/{len(self.checks)} "
                         "check(s) FAILED")
        else:
            lines.append(f"{title}: all {len(self.checks)} checks passed")
        return "\n".join(lines)


@dataclass(frozen=True)
class Source:
    """One scenario source: its mode, its workload, and the scenario.

    ``scenario`` records into the ledger it is handed and returns the
    source's extra artifact payload (or None).
    """

    mode: str
    seed: int
    tuples: int
    scenario: Callable[[Checks], Optional[Dict]]


def run_checks(title: str, source: Source,
               artifact_dir: Optional[Union[str, Path]] = None) -> int:
    """Run one source into a fresh ledger; returns the exit code (0 = green).

    With ``artifact_dir`` the ledger lands in ``CHECKS_ARTIFACT`` there —
    also when the scenario raised, which is when CI needs it most.
    """
    backend = current_backend()
    print(f"{title}: mode={source.mode} backend={backend} "
          f"seed={source.seed} tuples={source.tuples}", flush=True)
    checks = Checks()
    extra: Dict = {}
    try:
        extra = source.scenario(checks) or {}
    except Exception as exc:  # noqa: BLE001 - chaos must report, not crash
        traceback.print_exc()
        checks.record("scenario ran to completion", False,
                      f"{type(exc).__name__}: {exc}")
    else:
        checks.record("scenario ran to completion", True)
    print(checks.render(title))
    if artifact_dir is not None:
        path = Path(artifact_dir) / CHECKS_ARTIFACT
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(
            extra, mode=source.mode, backend=backend, seed=source.seed,
            tuples=source.tuples, ok=checks.ok,
            checks=[{"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in checks.checks])
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"\n{title}: checks written to {path}")
    return 0 if checks.ok else 1


def expect_identical(checks: Checks, name: str, baseline: JoinResult,
                     result: JoinResult, injected: bool = False) -> None:
    """The recovered-run contract: a bit-identical answer, an injected
    report when a fault was planted, and balanced trace and fault books."""
    checks.record(f"{name}: bit-identical", baseline.matches(result),
                  f"got ({result.output_count}, "
                  f"{result.output_checksum:#x}), want "
                  f"({baseline.output_count}, "
                  f"{baseline.output_checksum:#x})")
    if injected:
        n_injected = sum(1 for r in result.faults if r.injected)
        checks.record(f"{name}: injected report present", n_injected >= 1,
                      f"{n_injected} injected report(s)")
    trace_issue = verify_result_trace(result)
    checks.record(f"{name}: trace balanced", trace_issue is None,
                  str(trace_issue))
    fault_issue = verify_result_faults(result)
    checks.record(f"{name}: fault counters consistent", fault_issue is None,
                  str(fault_issue))


def expect_typed(checks: Checks, name: str, run: Callable[[], object]) -> None:
    """The typed-failure contract: ``run()`` must raise a ReproError that
    carries its FailureReport — not succeed, not raise anything else."""
    try:
        run()
    except ReproError as exc:
        checks.record(f"{name}: typed {type(exc).__name__}", True)
        checks.record(f"{name}: error carries report",
                      getattr(exc, "report", None) is not None)
        return
    except Exception as exc:  # noqa: BLE001 - the contract under test
        checks.record(f"{name}: typed error", False,
                      f"untyped {type(exc).__name__}: {exc}")
        return
    checks.record(f"{name}: typed error", False,
                  "run succeeded where a typed error was required")


def _raise(exc: BaseException) -> None:
    raise exc


def _pipeline_case(checks: Checks, spec: FaultSpec, join_input: JoinInput,
                   baseline: JoinResult) -> None:
    """Run one pipeline with exactly one fault spec active."""
    from repro.api import make_join  # local import: api imports the pipelines

    plan = FaultPlan((spec,), name=f"chaos-{spec.label()}")
    try:
        with activate_plan(plan):
            result = make_join(spec.algorithm).run(join_input)
    except Exception as exc:  # noqa: BLE001 - expect_typed judges it
        expect_typed(checks, spec.label(), partial(_raise, exc))
        return
    expect_identical(checks, spec.label(), baseline, result, injected=True)


def _artifact_case(checks: Checks, spec: FaultSpec, baseline: JoinResult,
                   directory: Path) -> None:
    """Exercise the torn-append / tolerant-load / atomic-rewrite path."""
    from repro.exec.serialize import (
        append_results_jsonl,
        results_from_jsonl_file,
        results_to_jsonl,
    )

    label = spec.label()
    path = directory / f"{spec.algorithm}-chaos.jsonl"
    append_results_jsonl([baseline], path)  # one intact line
    plan = FaultPlan((spec,), name=f"chaos-{label}")
    with activate_plan(plan), fault_scope(spec.algorithm):
        expect_typed(checks, f"{label}/append",
                     partial(append_results_jsonl, [baseline], path))
    # Recovery: tolerant load skips the torn trailing line (with a
    # warning), then the artifact is rewritten atomically and reloaded
    # strictly — the repaired file must round-trip the intact record.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = results_from_jsonl_file(path, tolerant=True)
    checks.record(f"{label}/load: tolerant loader warned",
                  any(issubclass(w.category, RuntimeWarning)
                      for w in caught),
                  "no RuntimeWarning for the torn line")
    if not checks.equal(f"{label}/load: intact record kept",
                        len(loaded), 1):
        return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(results_to_jsonl(loaded), encoding="utf-8")
    os.replace(tmp, path)
    repaired = results_from_jsonl_file(path)  # strict: must parse clean
    attach_posthoc_report(repaired[0], FailureReport(
        kind=ARTIFACT_CORRUPTION, point="artifact",
        algorithm=spec.algorithm, action="rewrite", recovered=True,
        injected=True,
        error="torn trailing line dropped; artifact rewritten atomically",
        context={"path": str(path), "records_kept": len(repaired)},
    ))
    expect_identical(checks, f"{label}/repaired", baseline, repaired[0],
                     injected=True)


def run_chaos(checks: Checks, join_input: JoinInput, seed: int = 42,
              algorithms: Sequence[str] = DEFAULT_CHAOS_ALGORITHMS) -> None:
    """Record the seeded sweep: every fault class against every algorithm.

    Baselines run fault-free first; each spec then runs in isolation
    against its algorithm, and its checks are named by ``spec.label()``.
    Deterministic for a given (seed, join_input).
    """
    from repro.api import make_join  # local import: api imports the pipelines

    baselines: Dict[str, JoinResult] = {}
    for algorithm in algorithms:
        baseline = make_join(algorithm).run(join_input)
        if baseline.faults:
            raise ReproError(
                f"fault-free baseline for {algorithm} recorded "
                f"{len(baseline.faults)} fault report(s)")
        baselines[algorithm] = baseline
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        for spec in seeded_plan(seed, algorithms).specs:
            baseline = baselines[spec.algorithm]
            if spec.kind == ARTIFACT_CORRUPTION:
                _artifact_case(checks, spec, baseline, Path(tmp))
            else:
                _pipeline_case(checks, spec, join_input, baseline)


def pipeline_source(tuples: int = 8192, theta: float = 1.0, seed: int = 42,
                    algorithms: Sequence[str] = DEFAULT_CHAOS_ALGORITHMS,
                    ) -> Source:
    """The pipeline sweep over a seeded zipf workload (plan seed = workload
    seed); refuses sizes below :data:`PIPELINE_MIN_TUPLES` and unknown
    algorithms with a :class:`ConfigError`."""
    from repro.api import ALGORITHMS  # local import: api imports the pipelines

    if tuples < PIPELINE_MIN_TUPLES:
        raise ConfigError(
            f"the pipeline chaos sweep needs --tuples >= "
            f"{PIPELINE_MIN_TUPLES}, got {tuples}: below it the seeded "
            "plan targets partition pairs some algorithms never reach")
    unknown = sorted(set(algorithms) - set(ALGORITHMS))
    if unknown or not algorithms:
        raise ConfigError(
            "the pipeline chaos sweep runs only "
            f"{', '.join(sorted(ALGORITHMS))}; got "
            f"{', '.join(unknown) or 'no algorithm'}")

    def scenario(checks: Checks) -> Dict:
        join_input = ZipfWorkload(tuples, tuples, theta, seed=seed).generate()
        run_chaos(checks, join_input, seed=seed, algorithms=algorithms)
        return {"theta": theta, "algorithms": list(algorithms)}

    return Source("pipeline", seed, tuples, scenario)

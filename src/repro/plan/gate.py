"""The plan gate: regret measurement of planner picks against an oracle.

CI's ``plan-gate`` job runs :func:`run_plan_gate` over the differential
diff grid (five algorithms x four datasets).  For every dataset the gate

1. asks the planner for its pick,
2. measures *every* feasible candidate for real (median wall of
   ``repeats`` runs — the oracle is whichever candidate was actually
   fastest),
3. scores the pick's **regret**: measured wall of the planner's choice
   over the oracle's wall.  The gate passes when every dataset's regret
   is at most ``threshold`` (2x by default — the planner must land
   within a factor of two of perfect hindsight),
4. checks **bit-identity**: the planner-executed result must compare
   clean (``compare_results``) against the same point forced by hand.

A calibration pass on a disjoint-seed workload warms the corrections
first, and the gate keeps learning dataset to dataset — the same loop
production traffic drives.  Oracles faster than ``floor_seconds`` are
scored but auto-pass: at sub-centisecond walls, scheduler jitter
dominates and regret is noise.

Artifacts (``plan-candidates.json``, ``regret-report.json``) land in
``out_dir`` for CI upload.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.backend import VECTOR, use_backend
from repro.exec.differential import compare_results, default_datasets
from repro.plan.candidates import CandidatePoint, Constraints
from repro.plan.corrections import CorrectionStore
from repro.plan.planner import Planner, pinned_workers

#: Default gate scale: small enough for a CI smoke leg, big enough that
#: the backends meaningfully separate.  Nightly runs 4x this.
DEFAULT_GATE_TUPLES = 20000

#: A pick within this factor of the oracle passes.
DEFAULT_REGRET_THRESHOLD = 2.0

#: Oracles faster than this are auto-pass: regret on sub-centisecond
#: walls measures scheduler jitter, not planning quality.
GATE_WALL_FLOOR_SECONDS = 0.05

#: Backends the gate measures by default.  Scalar is excluded: it is
#: deliberately ~10x slower interpretation, never a competitive pick,
#: and measuring it across the grid would multiply gate runtime for no
#: additional signal.  ``backends=None`` restores the full set.
DEFAULT_GATE_BACKENDS = (VECTOR, "parallel")


@dataclass
class CandidateMeasurement:
    """One candidate's predicted and measured cost on one dataset."""

    algorithm: str
    backend: str
    workers: int
    predicted_wall_seconds: float
    measured_wall_seconds: float
    picked: bool = False

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "workers": self.workers,
            "predicted_wall_seconds": self.predicted_wall_seconds,
            "measured_wall_seconds": self.measured_wall_seconds,
            "picked": self.picked,
        }


@dataclass
class DatasetGateResult:
    """The gate's verdict for one dataset."""

    dataset: str
    picked: str
    oracle: str
    picked_wall_seconds: float
    oracle_wall_seconds: float
    regret: float
    sub_floor: bool
    ok: bool
    identical: bool
    mismatches: List[str] = field(default_factory=list)
    measurements: List[CandidateMeasurement] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "picked": self.picked,
            "oracle": self.oracle,
            "picked_wall_seconds": self.picked_wall_seconds,
            "oracle_wall_seconds": self.oracle_wall_seconds,
            "regret": self.regret,
            "sub_floor": self.sub_floor,
            "ok": self.ok,
            "identical": self.identical,
            "mismatches": list(self.mismatches),
        }


@dataclass
class GateReport:
    """The full plan-gate outcome across every dataset."""

    n_tuples: int
    seed: int
    repeats: int
    threshold: float
    datasets: List[DatasetGateResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.ok and d.identical for d in self.datasets)

    @property
    def max_regret(self) -> float:
        return max((d.regret for d in self.datasets), default=0.0)

    def to_dict(self) -> dict:
        return {
            "n_tuples": self.n_tuples,
            "seed": self.seed,
            "repeats": self.repeats,
            "threshold": self.threshold,
            "ok": self.ok,
            "max_regret": self.max_regret,
            "datasets": [d.to_dict() for d in self.datasets],
        }

    def render(self) -> str:
        lines = [
            f"plan gate — {self.n_tuples} tuples, seed {self.seed}, "
            f"{self.repeats} repeat(s), regret threshold {self.threshold}x",
            "",
            f"  {'dataset':<10} {'picked':<22} {'oracle':<22} "
            f"{'regret':>8} {'status'}",
        ]
        for d in self.datasets:
            status = "ok" if (d.ok and d.identical) else "FAIL"
            if d.sub_floor and d.ok:
                status += " (sub-floor)"
            if not d.identical:
                status += " (diff!)"
            lines.append(
                f"  {d.dataset:<10} {d.picked:<22} {d.oracle:<22} "
                f"{d.regret:>7.2f}x {status}")
        lines.append("")
        lines.append(
            f"{'PASS' if self.ok else 'FAIL'}: max regret "
            f"{self.max_regret:.2f}x over {len(self.datasets)} dataset(s)")
        return "\n".join(lines)


def _measure_point(join_input, point: CandidatePoint, repeats: int) -> \
        Tuple[float, object]:
    """Median wall of running one point ``repeats`` times (plus the last
    result, for the identity check)."""
    from repro.api import make_join

    walls = []
    result = None
    with use_backend(point.backend), pinned_workers(point):
        for _ in range(max(repeats, 1)):
            result = make_join(point.algorithm).run(join_input)
            walls.append(result.wall_seconds)
    return statistics.median(walls), result


def _calibrate(planner: Planner, join_input, repeats: int) -> None:
    """Warm the corrections by measuring every candidate once on a
    calibration workload the gate never scores."""
    plan = planner.plan(join_input)
    for candidate in plan.candidates:
        if not candidate.feasible:
            continue
        wall, _ = _measure_point(join_input, candidate.point,
                                 repeats=max(repeats - 1, 1))
        total_base = candidate.prediction.base_wall_seconds
        if total_base <= 0:
            continue
        for phase in candidate.prediction.phases:
            # Apportion the measured wall across phases by base share.
            share = phase.base_wall_seconds / total_base
            planner.corrections.observe(
                candidate.point.algorithm, phase.name,
                candidate.point.backend,
                phase.base_wall_seconds, wall * share)


def run_plan_gate(
    n_tuples: int = DEFAULT_GATE_TUPLES,
    seed: int = 42,
    repeats: int = 2,
    threshold: float = DEFAULT_REGRET_THRESHOLD,
    backends: Optional[Sequence[str]] = DEFAULT_GATE_BACKENDS,
    out_dir: Optional[str] = None,
    floor_seconds: float = GATE_WALL_FLOOR_SECONDS,
) -> GateReport:
    """Measure planner regret over the diff grid; write CI artifacts."""
    constraints = Constraints.from_environment(backends=backends)
    planner = Planner(corrections=CorrectionStore(),  # in-memory
                      constraints=constraints)
    datasets = default_datasets(n_tuples, seed)

    # Calibration workload: same scale, disjoint seed — the gate must
    # not calibrate on the exact inputs it scores.
    from repro.data import uniform_input
    _calibrate(planner, uniform_input(n_tuples, n_tuples, seed=seed + 1),
               repeats)

    report = GateReport(n_tuples=n_tuples, seed=seed, repeats=repeats,
                        threshold=threshold)
    tables: Dict[str, dict] = {}
    for name, join_input in datasets.items():
        plan = planner.plan(join_input)
        tables[name] = plan.to_dict()
        planned_result = planner.execute(join_input, plan)
        picked = plan.chosen.point

        measurements: List[CandidateMeasurement] = []
        best_wall, best_point = float("inf"), picked
        picked_wall = float("inf")
        reference = None
        # Group by worker count so the pool restarts once per rung, not
        # once per candidate.
        feasible = [c for c in plan.candidates if c.feasible]
        for candidate in sorted(feasible, key=lambda c: c.point.workers):
            wall, result = _measure_point(join_input, candidate.point,
                                          repeats)
            measurements.append(CandidateMeasurement(
                algorithm=candidate.point.algorithm,
                backend=candidate.point.backend,
                workers=candidate.point.workers,
                predicted_wall_seconds=candidate.predicted_wall_seconds,
                measured_wall_seconds=wall,
                picked=candidate.point == picked,
            ))
            if wall < best_wall:
                best_wall, best_point = wall, candidate.point
            if candidate.point == picked:
                picked_wall = wall
                reference = result

        # Bit-identity: the planner-executed run against the hand-forced
        # reference of the same point.
        mismatches = (compare_results(planned_result, reference)
                      if reference is not None else
                      ["no reference run for the picked point"])

        regret = (picked_wall / best_wall if best_wall > 0 else 1.0)
        sub_floor = best_wall < floor_seconds
        result = DatasetGateResult(
            dataset=name,
            picked=picked.label(),
            oracle=best_point.label(),
            picked_wall_seconds=picked_wall,
            oracle_wall_seconds=best_wall,
            regret=regret,
            sub_floor=sub_floor,
            ok=(regret <= threshold) or sub_floor,
            identical=not mismatches,
            mismatches=mismatches,
            measurements=measurements,
        )
        report.datasets.append(result)
        # Learn as we go — later datasets benefit from earlier walls,
        # the same loop production traffic drives.
        planner.learn(planned_result)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        candidates_payload = {
            name: {
                **table,
                "measurements": [
                    m.to_dict()
                    for d in report.datasets if d.dataset == name
                    for m in d.measurements
                ],
            }
            for name, table in tables.items()
        }
        (out / "plan-candidates.json").write_text(
            json.dumps(candidates_payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (out / "regret-report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return report

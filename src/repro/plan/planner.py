"""The adaptive planner: sketch, predict, argmin, execute, learn.

:class:`Planner` ties the plan layer together.  One :meth:`Planner.plan`
call sketches the input (:mod:`repro.plan.sketch`), prices every
candidate (algorithm x backend x workers) point through the calibrated
cost models (:mod:`repro.plan.predict`), filters by constraints
(:mod:`repro.plan.candidates`), and returns the argmin with the full
explain table.  :meth:`Planner.execute` then runs the chosen point —
*exactly* as a hand-forced run would: the plan only selects
``use_backend`` / ``REPRO_WORKERS``, never touches the pipelines, so a
planned answer is bit-identical to the same configuration forced by
hand (property-tested in ``tests/plan/test_plan_independence.py``).

Every executed plan stamps ``result.meta["plan"]`` with the predicted
and realized costs; the trace validator (``repro trace --check``) audits
that bookkeeping via :func:`repro.plan.verify.verify_result_plan`, and
the correction store learns from it so predictions improve with traffic.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.data.relation import JoinInput
from repro.errors import ConfigError
from repro.exec.backend import PARALLEL, use_backend
from repro.exec.result import JoinResult
from repro.plan.candidates import (
    CandidatePoint,
    Constraints,
    check_feasibility,
    enumerate_candidates,
)
from repro.plan.corrections import CorrectionStore
from repro.plan.predict import AnalyticCache, CandidatePrediction, predict_candidate
from repro.plan.sketch import (
    DEFAULT_EXACT_BELOW,
    DEFAULT_SAMPLE_RATE,
    WorkloadSketch,
    sketch_workload,
)

#: The meta key planned results carry their bookkeeping under.
PLAN_META_KEY = "plan"


@dataclass
class PlanCandidate:
    """One ranked candidate: prediction plus feasibility."""

    prediction: CandidatePrediction
    feasible: bool = True
    reasons: List[str] = field(default_factory=list)

    @property
    def point(self) -> CandidatePoint:
        return self.prediction.point

    @property
    def predicted_wall_seconds(self) -> float:
        return self.prediction.predicted_wall_seconds


@dataclass
class Plan:
    """The outcome of planning one join input."""

    sketch: WorkloadSketch
    candidates: List[PlanCandidate]
    constraints: Constraints
    chosen: Optional[PlanCandidate] = None

    @property
    def n_feasible(self) -> int:
        return sum(1 for c in self.candidates if c.feasible)

    def meta(self) -> dict:
        """The ``result.meta['plan']`` payload for the chosen point."""
        if self.chosen is None:
            raise ConfigError("plan has no feasible candidate to execute")
        point = self.chosen.point
        return {
            "algorithm": point.algorithm,
            "backend": point.backend,
            "workers": point.workers,
            "predicted_wall_seconds":
                self.chosen.prediction.predicted_wall_seconds,
            "predicted_simulated_seconds":
                self.chosen.prediction.simulated_seconds,
            "phases": [
                {
                    "name": p.name,
                    "simulated_seconds": p.simulated_seconds,
                    "base_wall_seconds": p.base_wall_seconds,
                    "predicted_wall_seconds": p.predicted_wall_seconds,
                }
                for p in self.chosen.prediction.phases
            ],
            "candidates": len(self.candidates),
            "feasible": self.n_feasible,
            "sketch": self.sketch.summary(),
            "constraints": self.constraints.describe(),
        }

    def render(self) -> str:
        """The explain table: every candidate, predicted costs, the pick."""
        lines = [
            "plan — candidate table "
            f"({self.sketch.n_r} x {self.sketch.n_s} tuples, "
            + ("exact sketch"
               if self.sketch.exact else
               f"sampled at {self.sketch.sample_rate:.0%}, "
               f"{self.sketch.n_skewed} skewed key(s)") + ")",
            "",
            f"  {'candidate':<22} {'pred wall':>12} {'pred sim':>12} "
            f"{'status':<10}",
        ]
        for candidate in self.candidates:
            mark = ("*" if self.chosen is not None
                    and candidate.point == self.chosen.point else " ")
            status = "ok" if candidate.feasible else "infeasible"
            lines.append(
                f" {mark}{candidate.point.label():<22} "
                f"{candidate.predicted_wall_seconds:>11.4f}s "
                f"{candidate.prediction.simulated_seconds:>11.4f}s "
                f"{status:<10}")
            for reason in candidate.reasons:
                lines.append(f"      - {reason}")
        lines.append("")
        if self.chosen is None:
            lines.append("no feasible candidate under the constraints")
        else:
            lines.append(
                f"chosen: {self.chosen.point.label()} "
                f"(predicted {self.chosen.predicted_wall_seconds:.4f}s wall, "
                f"{self.n_feasible}/{len(self.candidates)} feasible)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable candidate table (the plan-gate artifact)."""
        return {
            "sketch": self.sketch.summary(),
            "constraints": self.constraints.describe(),
            "chosen": (self.chosen.point.label()
                       if self.chosen is not None else None),
            "candidates": [
                {
                    "algorithm": c.point.algorithm,
                    "backend": c.point.backend,
                    "workers": c.point.workers,
                    "predicted_wall_seconds": c.predicted_wall_seconds,
                    "predicted_simulated_seconds":
                        c.prediction.simulated_seconds,
                    "feasible": c.feasible,
                    "reasons": list(c.reasons),
                }
                for c in self.candidates
            ],
        }


@contextmanager
def pinned_workers(point: CandidatePoint) -> Iterator[None]:
    """Pin the parallel pool to the candidate's worker count.

    The pool is process-wide and sized by ``REPRO_WORKERS`` at spawn, so
    choosing a different count means restarting it — exactly what a hand
    run with ``REPRO_WORKERS=N`` does, which keeps planned and forced
    runs on identical code paths.  Non-parallel candidates are no-ops.
    """
    from repro.exec import parallel

    if point.backend != PARALLEL or parallel.worker_count() == point.workers:
        yield
        return
    previous = os.environ.get(parallel.WORKERS_ENV)
    os.environ[parallel.WORKERS_ENV] = str(point.workers)
    parallel.shutdown_pool()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(parallel.WORKERS_ENV, None)
        else:
            os.environ[parallel.WORKERS_ENV] = previous
        parallel.shutdown_pool()


class Planner:
    """Sample -> predict -> argmin -> execute -> learn."""

    def __init__(
        self,
        corrections: Optional[CorrectionStore] = None,
        constraints: Optional[Constraints] = None,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        seed: int = 0,
        exact_below: int = DEFAULT_EXACT_BELOW,
    ):
        self.constraints = constraints or Constraints.from_environment()
        self.sample_rate = sample_rate
        self.seed = seed
        self.exact_below = exact_below
        if corrections is None:
            from repro.plan.corrections import corrections_path_from_env
            corrections = CorrectionStore(path=corrections_path_from_env())
        self.corrections = corrections

    # ------------------------------------------------------------------
    # planning

    def sketch(self, join_input: JoinInput) -> WorkloadSketch:
        """Sketch one input with the planner's sampling settings."""
        return sketch_workload(join_input, sample_rate=self.sample_rate,
                               seed=self.seed,
                               exact_below=self.exact_below)

    def predict_point(self, sketch: WorkloadSketch,
                      point: CandidatePoint) -> CandidatePrediction:
        """Price one explicit point against a sketch (gate calibration)."""
        return predict_candidate(AnalyticCache(sketch.workload), point,
                                 self.corrections)

    def plan(self, join_input: JoinInput,
             constraints: Optional[Constraints] = None) -> Plan:
        """Enumerate, predict, and rank every candidate for one input."""
        constraints = constraints or self.constraints
        sketch = self.sketch(join_input)
        analytic = AnalyticCache(sketch.workload)
        candidates: List[PlanCandidate] = []
        for point in enumerate_candidates(constraints):
            prediction = predict_candidate(analytic, point, self.corrections)
            feasibility = check_feasibility(
                point, prediction.predicted_wall_seconds,
                sketch.estimated_bytes, constraints)
            candidates.append(PlanCandidate(
                prediction=prediction, feasible=feasibility.ok,
                reasons=feasibility.reasons))
        if not candidates:
            raise ConfigError(
                "no candidates to plan over; constraints exclude every "
                "(algorithm, backend) point",
                constraints=constraints.describe())
        # Stable rank: predicted wall, then enumeration order — ties
        # (e.g. an empty input predicting ~0 everywhere) stay
        # deterministic across processes.
        order = {id(c): i for i, c in enumerate(candidates)}
        candidates.sort(key=lambda c: (c.predicted_wall_seconds,
                                       order[id(c)]))
        plan = Plan(sketch=sketch, candidates=candidates,
                    constraints=constraints)
        for candidate in candidates:
            if candidate.feasible:
                plan.chosen = candidate
                break
        return plan

    # ------------------------------------------------------------------
    # execution

    def execute(self, join_input: JoinInput, plan: Plan) -> JoinResult:
        """Run a plan's chosen point and stamp the bookkeeping.

        The execution is byte-for-byte the hand-forced path: ambient
        backend selection plus the standard pipeline entry point.  The
        plan metadata rides in ``result.meta`` — which the differential
        harness ignores, the same as the backend tag.
        """
        from repro.api import make_join

        if plan.chosen is None:
            raise ConfigError(
                "cannot execute a plan with no feasible candidate",
                candidates=len(plan.candidates))
        point = plan.chosen.point
        with use_backend(point.backend), pinned_workers(point):
            result = make_join(point.algorithm).run(join_input)
        meta = plan.meta()
        realized = {p.name: 0.0 for p in result.phases}
        for phase in result.phases:
            realized[phase.name] = realized.get(phase.name, 0.0) \
                + phase.wall_seconds
        for entry in meta["phases"]:
            entry["realized_wall_seconds"] = realized.get(entry["name"])
        meta["realized_wall_seconds"] = result.wall_seconds
        meta["realized_simulated_seconds"] = result.simulated_seconds
        result.meta[PLAN_META_KEY] = meta
        return result

    def run(self, join_input: JoinInput,
            constraints: Optional[Constraints] = None,
            learn: bool = True) -> JoinResult:
        """Plan, execute, and (by default) learn from one input."""
        result = self.execute(join_input, self.plan(join_input, constraints))
        if learn:
            self.learn(result)
        return result

    # ------------------------------------------------------------------
    # learning

    def learn(self, result: JoinResult) -> int:
        """Fold a planned result's realized walls into the corrections
        (persisting when the store has a path)."""
        observed = self.corrections.learn_from_results([result])
        if observed:
            self.corrections.save()
        return observed

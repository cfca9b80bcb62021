"""Adaptive planning: sample -> predict -> argmin -> execute -> learn.

The plan layer chooses the (algorithm, backend, workers) execution point
for a join instead of making the caller pick: it sketches the input with
the CSH detector's sampling machinery, prices every candidate through
the calibrated analytic cost models, applies the operational constraints
(backend availability, memory budget, deadline), executes the argmin,
and learns per-(algorithm, phase, backend) wall-time corrections from
every planned run's trace.  Planning never changes answers — a planned
run is bit-identical to the same configuration forced by hand.

Entry points: ``repro plan`` (explain mode), ``repro run --auto``,
``repro serve --planner auto``, and the CI ``plan-gate``
(:func:`repro.plan.gate.run_plan_gate`).
"""

from repro.plan.candidates import (
    CandidatePoint,
    Constraints,
    Feasibility,
    check_feasibility,
    enumerate_candidates,
    worker_ladder,
)
from repro.plan.corrections import (
    CORRECTIONS_ENV,
    CorrectionStore,
    corrections_path_from_env,
)
from repro.plan.gate import (
    DEFAULT_GATE_TUPLES,
    DEFAULT_REGRET_THRESHOLD,
    GateReport,
    run_plan_gate,
)
from repro.plan.planner import (
    PLAN_META_KEY,
    Plan,
    PlanCandidate,
    Planner,
    pinned_workers,
)
from repro.plan.predict import (
    AnalyticCache,
    CandidatePrediction,
    PhasePrediction,
    base_wall_factor,
    predict_candidate,
)
from repro.plan.serve_hook import ProbeDecision, ServeProbePlanner
from repro.plan.sketch import WorkloadSketch, sketch_workload
from repro.plan.verify import verify_result_plan

__all__ = [
    "AnalyticCache",
    "CandidatePoint",
    "CandidatePrediction",
    "Constraints",
    "CorrectionStore",
    "CORRECTIONS_ENV",
    "DEFAULT_GATE_TUPLES",
    "DEFAULT_REGRET_THRESHOLD",
    "Feasibility",
    "GateReport",
    "PLAN_META_KEY",
    "Plan",
    "PlanCandidate",
    "Planner",
    "PhasePrediction",
    "ProbeDecision",
    "ServeProbePlanner",
    "WorkloadSketch",
    "base_wall_factor",
    "check_feasibility",
    "corrections_path_from_env",
    "enumerate_candidates",
    "pinned_workers",
    "predict_candidate",
    "run_plan_gate",
    "sketch_workload",
    "verify_result_plan",
    "worker_ladder",
]

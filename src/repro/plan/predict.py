"""Per-candidate cost prediction: analytic sim seconds -> wall seconds.

The analytic executors (:mod:`repro.analysis.analytic`) already price
every algorithm's phases in *simulated* seconds from a histogram — and
simulated seconds are backend-invariant by the differential harness's
contract.  What separates the backends is wall time per simulated
second, so a candidate's predicted wall is::

    sim_seconds(phase) * base_wall_factor(backend, workers)
                       * correction(algorithm, phase, backend)

The base factors are deliberately coarse priors (scalar interprets
tuple-at-a-time Python; vector runs NumPy kernels; parallel is vector
plus an Amdahl-style speedup on its morsel phases).  The learned
corrections carry the per-algorithm, per-phase truth — see
:mod:`repro.plan.corrections`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.analytic import ANALYTIC_EXECUTORS, AnalyticWorkload
from repro.exec.backend import PARALLEL, SCALAR, VECTOR
from repro.exec.result import JoinResult
from repro.plan.candidates import CandidatePoint
from repro.plan.corrections import CorrectionStore

#: Wall seconds per simulated second, cold-start prior per backend.  The
#: scalar figure is the measured median scalar/vector wall ratio (~12x at
#: 65 536 tuples per table); vector is the reference the cost model was
#: calibrated against.
BASE_WALL_PER_SIM: Dict[str, float] = {
    SCALAR: 12.0,
    VECTOR: 1.0,
    PARALLEL: 1.0,
}

#: Fraction of a parallel run that does not scale with workers (partition
#: passes, morsel dispatch, result merging) — Amdahl's prior.
PARALLEL_SERIAL_FRACTION = 0.5


def base_wall_factor(backend: str, workers: int = 1) -> float:
    """Uncorrected wall-per-sim factor of one backend at one pool size."""
    factor = BASE_WALL_PER_SIM.get(backend, 1.0)
    if backend == PARALLEL and workers > 1:
        factor *= (PARALLEL_SERIAL_FRACTION
                   + (1.0 - PARALLEL_SERIAL_FRACTION) / workers)
    return factor


@dataclass
class PhasePrediction:
    """One phase's predicted costs for one candidate."""

    name: str
    simulated_seconds: float
    #: Uncorrected wall prediction (sim * base factor) — what corrections
    #: are learned against.
    base_wall_seconds: float
    #: Corrected wall prediction — what the argmin ranks.
    predicted_wall_seconds: float
    correction: float = 1.0


@dataclass
class CandidatePrediction:
    """A candidate point with its full per-phase cost prediction."""

    point: CandidatePoint
    phases: List[PhasePrediction] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return sum(p.simulated_seconds for p in self.phases)

    @property
    def base_wall_seconds(self) -> float:
        return sum(p.base_wall_seconds for p in self.phases)

    @property
    def predicted_wall_seconds(self) -> float:
        return sum(p.predicted_wall_seconds for p in self.phases)


class AnalyticCache:
    """Memoizes one workload's analytic run per algorithm.

    Every backend/worker variant of an algorithm shares the same analytic
    result, so a full candidate sweep runs each executor exactly once.
    """

    def __init__(self, workload: AnalyticWorkload):
        self.workload = workload
        self._results: Dict[str, JoinResult] = {}

    def result(self, algorithm: str) -> JoinResult:
        if algorithm not in self._results:
            self._results[algorithm] = ANALYTIC_EXECUTORS[algorithm](
                self.workload)
        return self._results[algorithm]


def predict_candidate(
    analytic: AnalyticCache,
    point: CandidatePoint,
    corrections: Optional[CorrectionStore] = None,
) -> CandidatePrediction:
    """Price one candidate point from the shared analytic results."""
    result = analytic.result(point.algorithm)
    base_factor = base_wall_factor(point.backend, point.workers)
    prediction = CandidatePrediction(point=point)
    for phase in result.phases:
        base = phase.simulated_seconds * base_factor
        correction = (corrections.factor(point.algorithm, phase.name,
                                         point.backend)
                      if corrections is not None else 1.0)
        prediction.phases.append(PhasePrediction(
            name=phase.name,
            simulated_seconds=phase.simulated_seconds,
            base_wall_seconds=base,
            predicted_wall_seconds=base * correction,
            correction=correction,
        ))
    return prediction

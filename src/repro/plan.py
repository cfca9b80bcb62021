"""The planning rule: which join runs when the caller does not pick one.

``repro run --auto`` and the CI plan gate choose the algorithm with one
measured rule instead of a cost model:

* **cbase-npj** by default.  On the Python engine it has the lowest
  wall time of the five joins across the measured zipf grid
  (docs/planning.md); csh, the paper's simulated-seconds winner, is up
  to 2.4x slower there.
* **cbase** when a memory budget (``--memory-budget`` /
  ``REPRO_MEMORY_BUDGET``) is below the input's resident size of
  :data:`BYTES_PER_TUPLE` per tuple over both sides: only cbase and csh
  can spill, and cbase is the faster of the two in RAM on the measured
  grid (one cell is a 1% tie) and when spilled up to zipf θ 1.  At
  θ 1.25 a spilled csh keeps the skewed keys in RAM and is up to 1.14x
  faster; the rule accepts that regret rather than read the skew.

The backend is the ambient one (``--backend`` / ``REPRO_BACKEND``): the
parallel backend already chooses pool or vector per phase from the
measured crossover.  A planned run is the hand-forced run plus a
``result.meta["plan"]`` stamp, so its answer is bit-identical to
``--algorithm <pick>``.  ``repro trace --check`` audits the stamp
(:func:`verify_result_plan`), and :func:`run_plan_gate` scores the
rule's regret against every measured candidate.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.data.relation import JoinInput
from repro.exec.backend import (
    PARALLEL,
    VECTOR,
    current_backend,
    parallel_status,
    use_backend,
)
from repro.exec.differential import compare_results, default_datasets
from repro.exec.result import JoinResult

#: The meta key planned results carry their stamp under.
PLAN_META_KEY = "plan"

#: Keys every plan stamp carries.
PLAN_KEYS = ("algorithm", "backend", "rule")

#: Resident bytes per tuple of a partitioned input (key + payload +
#: hash), the spill plane's budget currency.
BYTES_PER_TUPLE = 12

#: Rule name -> (algorithm it picks, why).
RULES = {
    "default": ("cbase-npj", "lowest measured wall time of the five joins"),
    "memory-budget": ("cbase", "the input exceeds the memory budget, and "
                               "cbase is the faster of the joins that "
                               "spill up to zipf theta 1"),
}

#: Gate scale of the CI leg, where zipf-1.0 and uniform clear the wall
#: floor; nightly runs twice this.
DEFAULT_GATE_TUPLES = 1 << 17

#: A pick within this factor of the oracle passes.
DEFAULT_REGRET_THRESHOLD = 2.0

#: Oracles faster than this are auto-pass: regret on sub-50 ms walls
#: measures scheduler jitter, not the rule.
GATE_WALL_FLOOR_SECONDS = 0.05


@dataclass(frozen=True)
class Pick:
    """The rule's choice for one input."""

    algorithm: str
    backend: str
    rule: str
    input_bytes: int
    memory_budget: Optional[int] = None

    def label(self) -> str:
        return f"{self.algorithm}/{self.backend}"

    def meta(self) -> dict:
        """The ``result.meta['plan']`` stamp."""
        return {"algorithm": self.algorithm, "backend": self.backend,
                "rule": self.rule}

    def render(self) -> str:
        budget = ("none" if self.memory_budget is None
                  else f"{self.memory_budget} bytes")
        return (f"input {self.input_bytes} bytes, memory budget {budget}\n"
                f"chosen: {self.label()} (rule {self.rule}: "
                f"{RULES[self.rule][1]})")

    def run(self, join_input: JoinInput) -> JoinResult:
        """Run the pick exactly as a hand-forced run would, then stamp it."""
        from repro.api import make_join

        result = make_join(self.algorithm).run(join_input)
        result.meta[PLAN_META_KEY] = self.meta()
        return result


def choose(join_input: JoinInput,
           memory_budget: Optional[int] = None) -> Pick:
    """Apply the rule; ``memory_budget`` defaults to ``REPRO_MEMORY_BUDGET``."""
    from repro.store.spill import memory_budget_from_env

    if memory_budget is None:
        memory_budget = memory_budget_from_env()
    size = BYTES_PER_TUPLE * (len(join_input.r) + len(join_input.s))
    rule = ("memory-budget"
            if memory_budget is not None and memory_budget < size
            else "default")
    return Pick(RULES[rule][0], current_backend(), rule, size, memory_budget)


def verify_result_plan(result) -> Optional[str]:
    """Check a JoinResult's plan stamp.

    Returns ``None`` when the result carries no stamp (hand-forced runs
    are not planned) or the stamp holds; otherwise a description of the
    first problem: a missing key, an algorithm or backend other than
    the one that ran, or a rule that does not pick the stamped algorithm.
    """
    meta = getattr(result, "meta", None) or {}
    plan = meta.get(PLAN_META_KEY)
    if plan is None:
        return None
    algorithm = getattr(result, "algorithm", "?")
    if not isinstance(plan, dict):
        return (f"{algorithm}: meta['plan'] is {type(plan).__name__}, "
                "not a dict — it was flattened in serialization")
    missing = [k for k in PLAN_KEYS if k not in plan]
    if missing:
        return f"{algorithm}: plan metadata is missing {missing}"
    if algorithm != plan["algorithm"]:
        return (f"{algorithm}: result ran {algorithm!r} but the plan "
                f"chose {plan['algorithm']!r}")
    ran_on = meta.get("backend")
    if ran_on is not None and ran_on != plan["backend"]:
        return (f"{algorithm}: result ran on {ran_on!r} but the plan "
                f"chose {plan['backend']!r}")
    if RULES.get(plan["rule"], (None,))[0] != plan["algorithm"]:
        return (f"{algorithm}: plan rule {plan['rule']!r} does not pick "
                f"{plan['algorithm']!r}")
    return None


# ---------------------------------------------------------------------------
# the regret gate
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    """One candidate's measured wall on one dataset."""

    algorithm: str
    backend: str
    wall_seconds: float
    picked: bool = False

    def label(self) -> str:
        return f"{self.algorithm}/{self.backend}"

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "backend": self.backend,
                "measured_wall_seconds": self.wall_seconds,
                "picked": self.picked}


@dataclass
class DatasetGateResult:
    """The gate's verdict for one dataset."""

    dataset: str
    picked: str
    rule: str
    oracle: str
    picked_wall_seconds: float
    oracle_wall_seconds: float
    regret: float
    sub_floor: bool
    ok: bool
    identical: bool
    mismatches: List[str] = field(default_factory=list)
    measurements: List[Measurement] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "picked": self.picked,
            "rule": self.rule,
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


def _measure(join_input: JoinInput, algorithm: str, backend: str,
             repeats: int) -> Tuple[float, JoinResult]:
    """Median wall of ``repeats`` forced runs, plus the last result."""
    from repro.api import make_join

    walls = []
    with use_backend(backend):
        for _ in range(max(repeats, 1)):
            result = make_join(algorithm).run(join_input)
            walls.append(result.wall_seconds)
    return statistics.median(walls), result


def run_plan_gate(
    n_tuples: int = DEFAULT_GATE_TUPLES,
    seed: int = 42,
    repeats: int = 2,
    threshold: float = DEFAULT_REGRET_THRESHOLD,
    out_dir: Optional[str] = None,
    floor_seconds: float = GATE_WALL_FLOOR_SECONDS,
) -> GateReport:
    """Score the rule's regret over the diff grid; write CI artifacts.

    For every dataset the gate runs the rule's pick (the ``--auto``
    path), measures every algorithm on vector and parallel (median of
    ``repeats`` runs; the oracle is the fastest), and scores regret as
    the pick's measured wall over the oracle's.  A dataset passes when
    regret is at most ``threshold`` or the oracle is under
    ``floor_seconds``, and the auto run compares clean against the same
    point forced by hand.
    """
    from repro.api import ALGORITHMS

    backends = (VECTOR, PARALLEL) if parallel_status()[0] else (VECTOR,)
    report = GateReport(n_tuples=n_tuples, seed=seed, repeats=repeats,
                        threshold=threshold)
    for name, join_input in default_datasets(n_tuples, seed).items():
        pick = choose(join_input)
        planned = pick.run(join_input)
        points = [(a, b) for a in sorted(ALGORITHMS) for b in backends]
        if (pick.algorithm, pick.backend) not in points:
            points.append((pick.algorithm, pick.backend))
        measurements: List[Measurement] = []
        reference = None
        for algorithm, backend in points:
            wall, result = _measure(join_input, algorithm, backend, repeats)
            picked = (algorithm, backend) == (pick.algorithm, pick.backend)
            if picked:
                reference = result
            measurements.append(
                Measurement(algorithm, backend, wall, picked=picked))
        oracle = min(measurements, key=lambda m: m.wall_seconds)
        picked_wall = next(m.wall_seconds for m in measurements if m.picked)
        regret = (picked_wall / oracle.wall_seconds
                  if oracle.wall_seconds > 0 else 1.0)
        sub_floor = oracle.wall_seconds < floor_seconds
        mismatches = compare_results(planned, reference)
        report.datasets.append(DatasetGateResult(
            dataset=name,
            picked=pick.label(),
            rule=pick.rule,
            oracle=oracle.label(),
            picked_wall_seconds=picked_wall,
            oracle_wall_seconds=oracle.wall_seconds,
            regret=regret,
            sub_floor=sub_floor,
            ok=regret <= threshold or sub_floor,
            identical=not mismatches,
            mismatches=mismatches,
            measurements=measurements,
        ))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        candidates = {
            d.dataset: {"chosen": d.picked, "rule": d.rule,
                        "measurements": [m.to_dict()
                                         for m in d.measurements]}
            for d in report.datasets
        }
        (out / "plan-candidates.json").write_text(
            json.dumps(candidates, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (out / "regret-report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return report

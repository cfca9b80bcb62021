"""Join result and phase breakdown containers.

Every pipeline in this library returns a :class:`JoinResult`: the output
summary (count + order-independent checksum), a per-phase breakdown of
simulated time and operation counters, and the wall-clock time the Python
executor actually took.  The per-phase breakdown mirrors the rows of the
paper's Table I (e.g., ``partition`` / ``join`` for Cbase, ``sample+part`` /
``nm-join`` for CSH).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.exec.counters import OpCounters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.report import FailureReport
    from repro.obs.trace import TraceRecord


@dataclass
class PhaseResult:
    """Outcome of one pipeline phase.

    ``simulated_seconds`` is the cost-model makespan of the phase's tasks on
    the simulated workers (CPU) or SMs (GPU).  ``wall_seconds`` is the time
    the Python executor spent, reported for transparency only.
    """

    name: str
    simulated_seconds: float
    counters: OpCounters = field(default_factory=OpCounters)
    wall_seconds: float = 0.0
    #: Number of tasks/blocks the phase dispatched (0 if not task-based).
    task_count: int = 0
    #: Free-form per-phase details (e.g. detected skewed key count).
    details: Dict[str, float] = field(default_factory=dict)


@dataclass
class JoinResult:
    """Outcome of a full join pipeline run."""

    algorithm: str
    n_r: int
    n_s: int
    output_count: int
    output_checksum: int
    phases: List[PhaseResult] = field(default_factory=list)
    #: Algorithm-specific metadata (skewed keys detected, fanout used, ...).
    meta: Dict[str, object] = field(default_factory=dict)
    #: Structured trace of the run (spans + metrics); populated by the
    #: pipelines, optional so hand-built results stay lightweight.
    trace: Optional["TraceRecord"] = None
    #: Fault episodes (injected or organic) seen during the run, in order.
    #: Empty for a fault-free run.
    faults: List["FailureReport"] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated time across all phases."""
        return sum(p.simulated_seconds for p in self.phases)

    @property
    def wall_seconds(self) -> float:
        """Total wall-clock time of the Python executor across phases."""
        return sum(p.wall_seconds for p in self.phases)

    @property
    def counters(self) -> OpCounters:
        """Total operation counters across all phases."""
        return OpCounters.sum(p.counters for p in self.phases)

    def phase(self, name: str) -> PhaseResult:
        """Return the phase with the given name.

        Raises ``KeyError`` if the pipeline produced no such phase.
        """
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"{self.algorithm} has no phase named {name!r}; "
                       f"phases: {[p.name for p in self.phases]}")

    def phase_seconds(self, *names: str) -> float:
        """Sum of simulated seconds over the named phases."""
        return sum(self.phase(n).simulated_seconds for n in names)

    def breakdown(self) -> Dict[str, float]:
        """Mapping of phase name to simulated seconds."""
        return {p.name: p.simulated_seconds for p in self.phases}

    def summary_line(self) -> str:
        """One-line human-readable summary."""
        phases = ", ".join(
            f"{p.name}={p.simulated_seconds:.4g}s" for p in self.phases
        )
        return (
            f"{self.algorithm}: |R|={self.n_r} |S|={self.n_s} "
            f"out={self.output_count} sim={self.simulated_seconds:.4g}s ({phases})"
        )

    def matches(self, other: "JoinResult") -> bool:
        """True if the two results describe the same join output."""
        return (
            self.output_count == other.output_count
            and self.output_checksum == other.output_checksum
        )


def compare_results(results: List[JoinResult]) -> Optional[str]:
    """Check a list of results for output agreement.

    Returns ``None`` if all results agree on (count, checksum), otherwise a
    human-readable description of the first disagreement.
    """
    if not results:
        return None
    base = results[0]
    for other in results[1:]:
        if not base.matches(other):
            return (
                f"{base.algorithm} produced count={base.output_count} "
                f"checksum={base.output_checksum:#x} but {other.algorithm} "
                f"produced count={other.output_count} "
                f"checksum={other.output_checksum:#x}"
            )
    return None

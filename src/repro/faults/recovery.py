"""The shared bounded-retry engine.

Every task-shaped recovery site — CPU partition-pair join tasks, the
no-partition join's probe segments, GPU join-pair block building — runs
through :func:`run_task_with_recovery`: injected faults for the task are
consumed *before* the functional work executes (so a crashed attempt never
writes partial output and retried tasks cannot double-count tuples), while
organic :class:`CapacityError` failures raised by the work itself are
retried with a grown structure (the ``attempt`` number passed to the runner
increases, and runners size tables as ``base << attempt``).  Each failed
attempt is charged ``crash_cost_fraction`` of the task's cost plus
exponential backoff; exhausting ``max_retries`` raises
:class:`UnrecoveredFaultError` carrying the episode's
:class:`FailureReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import CapacityError, UnrecoveredFaultError, WorkerCrashError
from repro.exec.counters import OpCounters
from repro.faults.plan import CAPACITY_OVERFLOW, WORKER_CRASH
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import FaultScope


def scale_counters(counters: OpCounters, fraction: float) -> OpCounters:
    """Fractionally scale counters (wasted-attempt accounting).

    ``output_tuples`` is zeroed: a crashed attempt's output is discarded,
    so wasted work pays compute and memory cost but never contributes
    logical output — retried tasks cannot double-count tuples.
    """
    scaled = OpCounters(**{key: int(value * fraction)
                           for key, value in counters.as_dict().items()})
    scaled.output_tuples = 0
    return scaled


@dataclass
class FaultEpisode:
    """Accumulated failures of one task before it finally succeeded."""

    retries: int = 0
    injected_retries: int = 0
    kind: Optional[str] = None
    point: Optional[str] = None
    backoffs: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    context: Dict[str, object] = field(default_factory=dict)

    @property
    def backoff_seconds(self) -> float:
        return sum(self.backoffs)


def consume_injected_faults(
    scope: FaultScope,
    points: Sequence[str],
    phase: str = "",
    **context,
) -> FaultEpisode:
    """Probe the injection points for one task and absorb what fires.

    Probes repeat until no spec fires (each probe is one "attempt" the
    simulated worker loses), so a spec with ``repeat`` beyond the policy's
    ``max_retries`` exhausts the budget here and raises
    :class:`UnrecoveredFaultError`.
    """
    policy = scope.policy
    episode = FaultEpisode(context=dict(context))
    while True:
        spec = None
        for point in points:
            spec = scope.fire(point, **context)
            if spec is not None:
                break
        if spec is None:
            return episode
        episode.retries += 1
        episode.injected_retries += 1
        episode.kind = spec.kind
        episode.point = spec.point
        episode.errors.append(f"injected {spec.kind} ({spec.label()})")
        episode.backoffs.append(policy.backoff_seconds(episode.retries))
        if episode.retries > policy.max_retries:
            report = scope.record(FailureReport(
                kind=spec.kind, point=spec.point, algorithm=scope.algorithm,
                phase=phase or current_phase_name(), action="abort",
                recovered=False, injected=True, retries=episode.retries,
                backoff_seconds=episode.backoff_seconds,
                error=episode.errors[-1], context=dict(episode.context),
            ))
            raise UnrecoveredFaultError(
                f"{spec.kind} at {spec.point} exhausted "
                f"{policy.max_retries} retries", report=report, **context)


@dataclass
class TaskOutcome:
    """Result of one task run through the recovery engine."""

    value: object
    #: Counters of the successful attempt only (never double-counted).
    counters: OpCounters
    #: Wasted-work counters of each failed attempt, schedule as extra tasks.
    wasted: List[OpCounters]
    #: Simulated backoff per failed attempt, seconds.
    backoffs: List[float]
    #: Recovered-episode report (already recorded), if any retries happened.
    report: Optional[FailureReport] = None

    @property
    def retries(self) -> int:
        return len(self.wasted)


def run_task_with_recovery(
    runner: Callable[[OpCounters, int], object],
    scope: FaultScope,
    points: Sequence[str] = ("capacity", "task"),
    phase: str = "",
    **context,
) -> TaskOutcome:
    """Run one task under the scope's plan and policy.

    ``runner(counters, attempt)`` executes the task functionally into fresh
    ``counters``; ``attempt`` starts at the number of already-absorbed
    injected failures, so capacity-overflow retries see a larger structure.
    Organic :class:`CapacityError` / :class:`WorkerCrashError` raises are
    retried with backoff; success after retries records one recovered
    :class:`FailureReport` on the scope.
    """
    policy = scope.policy
    phase = phase or current_phase_name()
    episode = consume_injected_faults(scope, points, phase=phase, **context)
    injected = episode.injected_retries > 0
    attempt = episode.injected_retries
    organic_wasted: List[OpCounters] = []
    while True:
        counters = OpCounters()
        try:
            value = runner(counters, attempt)
            break
        except (WorkerCrashError, CapacityError) as exc:
            episode.retries += 1
            episode.kind = (WORKER_CRASH if isinstance(exc, WorkerCrashError)
                            else CAPACITY_OVERFLOW)
            episode.point = episode.point or (
                "task" if isinstance(exc, WorkerCrashError) else "capacity")
            episode.errors.append(str(exc))
            episode.context.update(getattr(exc, "context", {}))
            episode.backoffs.append(policy.backoff_seconds(episode.retries))
            organic_wasted.append(
                scale_counters(counters, policy.crash_cost_fraction))
            if episode.retries > policy.max_retries:
                report = scope.record(FailureReport(
                    kind=episode.kind, point=episode.point,
                    algorithm=scope.algorithm, phase=phase, action="abort",
                    recovered=False, injected=injected,
                    retries=episode.retries,
                    backoff_seconds=episode.backoff_seconds,
                    error=str(exc), context=dict(episode.context),
                ))
                raise UnrecoveredFaultError(
                    str(exc), report=report,
                    **getattr(exc, "context", {})) from exc
            attempt += 1
    if episode.retries == 0:
        return TaskOutcome(value=value, counters=counters, wasted=[],
                           backoffs=[])
    # Injected failures land mid-task: each wasted attempt costs the same
    # fraction of the (eventually successful) task's measured work.
    wasted = [scale_counters(counters, policy.crash_cost_fraction)
              for _ in range(episode.injected_retries)] + organic_wasted
    action = "regrow" if episode.kind == CAPACITY_OVERFLOW else "retry"
    report = scope.record(FailureReport(
        kind=episode.kind, point=episode.point or "task",
        algorithm=scope.algorithm, phase=phase, action=action,
        recovered=True, injected=injected, retries=episode.retries,
        backoff_seconds=episode.backoff_seconds,
        error=episode.errors[-1] if episode.errors else "",
        context=dict(episode.context),
    ))
    return TaskOutcome(value=value, counters=counters, wasted=wasted,
                       backoffs=episode.backoffs, report=report)

"""Deterministic fault injection and recovery.

The fault plane has four layers:

* :mod:`repro.faults.plan` — what to inject: :class:`FaultSpec` /
  :class:`FaultPlan`, the seeded sweep builder, and the fault-class ->
  injection-point mapping.
* :mod:`repro.faults.policy` — how to recover: bounded retries, backoff,
  regrow factors, and the fallback switches.
* :mod:`repro.faults.scope` — per-run state: hit counting, spec matching,
  and :class:`FailureReport` collection, ambient via
  :func:`current_fault_scope`.
* :mod:`repro.faults.recovery` — the shared retry engine used by every
  task-shaped recovery site.

:mod:`repro.faults.chaos` is the one chaos runner behind ``repro chaos``
and ``repro serve --smoke``: one check ledger, one recovered-or-typed
contract, one ``chaos-checks.json`` artifact.  Its pipeline source sweeps
a seeded plan over the pipelines; the serve and spill sources live in
:mod:`repro.serve.chaos` and :mod:`repro.store.chaos`.  This package does
not import it, which avoids an import cycle with the algorithm registry.
"""

from repro.faults.plan import (
    ARTIFACT_CORRUPTION,
    CAPACITY_OVERFLOW,
    DEFAULT_CHAOS_ALGORITHMS,
    DEFAULT_SLOW_SECONDS,
    EMPTY_PLAN,
    FAULT_KINDS,
    GPU_ALGORITHM_NAMES,
    INJECTION_POINTS,
    KERNEL_ABORT,
    KERNEL_OOM,
    SLOW,
    WORKER_CRASH,
    FaultPlan,
    FaultSpec,
    injection_point,
    kinds_for,
    seeded_plan,
)
from repro.faults.policy import (
    DEFAULT_RECOVERY_POLICY,
    RecoveryPolicy,
    activate_policy,
    current_policy,
)
from repro.faults.recovery import (
    FaultEpisode,
    TaskOutcome,
    consume_injected_faults,
    run_task_with_recovery,
    scale_counters,
)
from repro.faults.report import (
    FailureReport,
    attach_posthoc_report,
    count_fault_metrics,
    current_phase_name,
    verify_result_faults,
)
from repro.faults.scope import (
    FaultScope,
    NullFaultScope,
    activate_plan,
    current_fault_scope,
    current_plan,
    fault_scope,
)

__all__ = [
    "ARTIFACT_CORRUPTION",
    "CAPACITY_OVERFLOW",
    "DEFAULT_CHAOS_ALGORITHMS",
    "DEFAULT_RECOVERY_POLICY",
    "DEFAULT_SLOW_SECONDS",
    "EMPTY_PLAN",
    "FAULT_KINDS",
    "FaultEpisode",
    "FailureReport",
    "FaultPlan",
    "FaultScope",
    "FaultSpec",
    "GPU_ALGORITHM_NAMES",
    "INJECTION_POINTS",
    "KERNEL_ABORT",
    "KERNEL_OOM",
    "NullFaultScope",
    "RecoveryPolicy",
    "SLOW",
    "TaskOutcome",
    "WORKER_CRASH",
    "activate_plan",
    "activate_policy",
    "attach_posthoc_report",
    "consume_injected_faults",
    "count_fault_metrics",
    "current_fault_scope",
    "current_phase_name",
    "current_plan",
    "current_policy",
    "fault_scope",
    "injection_point",
    "kinds_for",
    "run_task_with_recovery",
    "scale_counters",
    "seeded_plan",
    "verify_result_faults",
]

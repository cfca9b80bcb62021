"""Shared execution engine: counters, output buffers, cost models, results."""

from repro.exec.counters import OpCounters
from repro.exec.cost_model import (
    CPUCostModel,
    DEFAULT_CPU_COST_MODEL,
    DEFAULT_GPU_COST_MODEL,
    GPUCostModel,
)
from repro.exec.output import (
    DEFAULT_CAPACITY,
    JoinOutputBuffer,
    OutputSummary,
    combine_summaries,
)
from repro.exec.report import comparison_report, result_report
from repro.exec.serialize import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
    results_from_json,
    results_to_json,
)
from repro.exec.result import JoinResult, PhaseResult, compare_results

__all__ = [
    "OpCounters",
    "CPUCostModel",
    "GPUCostModel",
    "DEFAULT_CPU_COST_MODEL",
    "DEFAULT_GPU_COST_MODEL",
    "JoinOutputBuffer",
    "OutputSummary",
    "combine_summaries",
    "DEFAULT_CAPACITY",
    "JoinResult",
    "PhaseResult",
    "compare_results",
    "result_report",
    "comparison_report",
    "result_to_dict",
    "result_from_dict",
    "result_to_json",
    "result_from_json",
    "results_to_json",
    "results_from_json",
]

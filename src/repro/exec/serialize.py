"""JSON-serializable records of join results.

Experiment logging support: convert a :class:`JoinResult` (including its
phase breakdown, counters, and failure reports) to plain dicts and back,
so sweeps can be archived and re-rendered without re-running.

The appender is crash-conscious: lines are flushed and fsynced, and the
``artifact`` injection point simulates a torn append (the process dying
mid-write) by truncating the final line — which the tolerant loader in
:func:`repro.obs.export.read_jsonl` detects and skips with a warning.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import ReproError
from repro.exec.counters import OpCounters
from repro.exec.result import JoinResult, PhaseResult
from repro.faults.plan import ARTIFACT_CORRUPTION
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import current_fault_scope
from repro.obs.export import read_jsonl, trace_from_dict, trace_to_dict

_FORMAT_VERSION = 1


def phase_to_dict(phase: PhaseResult) -> Dict:
    """Plain-dict form of one phase result."""
    return {
        "name": phase.name,
        "simulated_seconds": phase.simulated_seconds,
        "wall_seconds": phase.wall_seconds,
        "task_count": phase.task_count,
        "counters": {k: v for k, v in phase.counters.as_dict().items() if v},
        "details": dict(phase.details),
    }


def phase_from_dict(data: Dict) -> PhaseResult:
    """Rebuild a phase result from its dict form."""
    counters = OpCounters(**data.get("counters", {}))
    return PhaseResult(
        name=data["name"],
        simulated_seconds=data["simulated_seconds"],
        counters=counters,
        wall_seconds=data.get("wall_seconds", 0.0),
        task_count=data.get("task_count", 0),
        details=dict(data.get("details", {})),
    )


def result_to_dict(result: JoinResult) -> Dict:
    """Plain-dict form of a join result (JSON compatible)."""
    data = {
        "format_version": _FORMAT_VERSION,
        "algorithm": result.algorithm,
        "n_r": result.n_r,
        "n_s": result.n_s,
        "output_count": result.output_count,
        "output_checksum": result.output_checksum,
        "phases": [phase_to_dict(p) for p in result.phases],
        "meta": _jsonable_meta(result.meta),
    }
    if result.faults:
        data["faults"] = [report.to_dict() for report in result.faults]
    if result.trace is not None:
        data["trace"] = trace_to_dict(result.trace)
    return data


def result_from_dict(data: Dict) -> JoinResult:
    """Rebuild a join result from its dict form."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported result format version: {version!r} (this build "
            f"reads version {_FORMAT_VERSION}); the artifact was written "
            "by a different build — re-export it with `repro trace --out`",
            found_version=version, expected_version=_FORMAT_VERSION,
        )
    trace = data.get("trace")
    return JoinResult(
        algorithm=data["algorithm"],
        n_r=data["n_r"],
        n_s=data["n_s"],
        output_count=data["output_count"],
        output_checksum=data["output_checksum"],
        phases=[phase_from_dict(p) for p in data["phases"]],
        meta=dict(data.get("meta", {})),
        faults=[FailureReport.from_dict(f)
                for f in data.get("faults", [])],
        trace=trace_from_dict(trace) if trace is not None else None,
    )


def result_to_json(result: JoinResult, indent: int = None) -> str:
    """JSON string form of a join result."""
    return json.dumps(result_to_dict(result), indent=indent)


def result_from_json(text: str) -> JoinResult:
    """Rebuild a join result from JSON."""
    return result_from_dict(json.loads(text))


def results_to_json(results: List[JoinResult], indent: int = None) -> str:
    """Serialize a list of results (e.g. one sweep)."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


def results_from_json(text: str) -> List[JoinResult]:
    """Rebuild a list of join results from JSON."""
    return [result_from_dict(d) for d in json.loads(text)]


def results_to_jsonl(results: List[JoinResult]) -> str:
    """JSONL form: one compact result object per line (trailing newline)."""
    return "".join(
        json.dumps(result_to_dict(r), sort_keys=True) + "\n" for r in results
    )


def results_from_jsonl(text: str) -> List[JoinResult]:
    """Rebuild join results from JSONL text (blank lines skipped)."""
    return [
        result_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def append_results_jsonl(results: List[JoinResult],
                         path: Union[str, Path]) -> int:
    """Append results to a JSONL artifact file; returns lines written.

    Creates parent directories as needed — this is the writer behind the
    benchmark harness's ``REPRO_TRACE_DIR`` artifacts.  Lines are
    serialized before the file is opened, and the write is flushed and
    fsynced, so a crash leaves at worst one torn trailing line.

    The ``artifact`` injection point simulates exactly that torn write:
    when it fires, the final line is truncated mid-record and the
    simulated crash is re-raised as :class:`ArtifactCorruptionError` so
    callers exercise the recovery path (tolerant load + atomic rewrite).
    """
    from repro.errors import ArtifactCorruptionError

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = results_to_jsonl(results)
    scope = current_fault_scope()
    spec = scope.fire("artifact", path=str(path)) if results else None
    if spec is not None:
        # Torn append: drop the second half of the last line, no newline.
        lines = payload.splitlines()
        payload = "".join(line + "\n" for line in lines[:-1])
        payload += lines[-1][:max(len(lines[-1]) // 2, 1)]
    with path.open("a", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if spec is not None:
        report = scope.record(FailureReport(
            kind=spec.kind, point="artifact", algorithm=scope.algorithm,
            phase=current_phase_name(), action="abort", recovered=False,
            injected=True, error="injected torn append (crash mid-write)",
            context={"path": str(path), "lines": len(results)},
        ))
        raise ArtifactCorruptionError(
            "simulated crash while appending results", report=report,
            path=str(path))
    return len(results)


def results_from_jsonl_file(path: Union[str, Path],
                            tolerant: bool = False) -> List[JoinResult]:
    """Read a JSONL artifact written by :func:`append_results_jsonl`.

    ``tolerant=True`` skips (with a warning) a truncated trailing line
    left by a torn append; see :func:`repro.obs.export.read_jsonl`.
    """
    return [result_from_dict(d)
            for d in read_jsonl(path, tolerant=tolerant)]


def _jsonable_meta(meta: Dict) -> Dict:
    return {key: _jsonable_value(value) for key, value in meta.items()}


def _jsonable_value(value):
    """Recursively coerce a meta value to plain JSON types.

    Nested dicts (the planning rule's ``meta["plan"]`` stamp) survive
    structurally — ``trace --check`` reads them back from JSONL
    artifacts.  Anything unrecognized degrades to
    its string form rather than failing the export.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(v) for v in value]
    if hasattr(value, "__int__"):  # numpy integer scalars
        return int(value)
    return str(value)

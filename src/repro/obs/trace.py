"""Span-based tracing for the join pipelines.

Every pipeline ``run()`` opens its run through :func:`join_run`, and each
phase becomes a root :class:`Span`::

    with join_run("csh", join_input) as (result, tracer, faults):
        with tracer.span("partition", algo="csh") as span:
            ...
            span.finish(simulated_seconds=makespan, counters=total)

Spans nest: lower layers (the GPU simulator's kernel launches, the
adaptive prober) open child spans under whatever span is currently open
without needing a tracer handle — they reach the active tracer through
:func:`current_tracer`.  Each span records three things:

* ``simulated_seconds`` — the cost-model time of the phase.  Set
  explicitly by ``finish()``; a span that is never finished but has
  children reports the sum of its children instead.
* ``wall_seconds`` — the time the Python executor actually spent inside
  the span (measured, transparency only).
* ``counters`` — the :class:`~repro.exec.counters.OpCounters` delta
  attributed to the span.

A tracer also carries a :class:`~repro.obs.metrics.MetricsRegistry` for
scalar facts that do not belong to a single span.  ``tracer.record()``
freezes everything into a :class:`TraceRecord`, which pipelines attach to
their :class:`~repro.exec.result.JoinResult` and which serializes to
JSON/JSONL via :mod:`repro.obs.export`.  The result's phase list is not
kept by hand: it is :meth:`TraceRecord.phases`, the finished root spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import ExecutionError
from repro.exec.backend import current_backend
from repro.exec.counters import OpCounters
from repro.exec.result import JoinResult, PhaseResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.rss import peak_rss_bytes


@dataclass
class Span:
    """One traced phase (or sub-phase) of a pipeline run."""

    name: str
    attrs: Dict[str, object] = field(default_factory=dict)
    counters: OpCounters = field(default_factory=OpCounters)
    details: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    wall_seconds: float = 0.0
    task_count: int = 0
    #: Explicit simulated time; ``None`` means "sum my children".
    explicit_seconds: Optional[float] = None

    @property
    def simulated_seconds(self) -> float:
        """Simulated time: the finish() value, else the children's sum."""
        if self.explicit_seconds is not None:
            return self.explicit_seconds
        return sum(child.simulated_seconds for child in self.children)

    @property
    def finished(self) -> bool:
        """True once the span can report a simulated time."""
        return self.explicit_seconds is not None or bool(self.children)

    def finish(
        self,
        simulated_seconds: float,
        counters: Optional[OpCounters] = None,
        task_count: int = 0,
        **details: float,
    ) -> None:
        """Record the span outcome; negative simulated time is an error."""
        if simulated_seconds < 0:
            raise ExecutionError(
                f"span {self.name!r} reported negative simulated time"
            )
        self.explicit_seconds = float(simulated_seconds)
        if counters is not None:
            self.counters = counters
        self.task_count = task_count
        self.details.update(details)

    @property
    def phase_result(self) -> PhaseResult:
        """This span as a :class:`PhaseResult` for the JoinResult breakdown."""
        if not self.finished:
            raise ExecutionError(
                f"span {self.name!r} queried before completion"
            )
        return PhaseResult(
            name=self.name,
            simulated_seconds=self.simulated_seconds,
            counters=self.counters,
            wall_seconds=self.wall_seconds,
            task_count=self.task_count,
            details=dict(self.details),
        )

    def walk(self, depth: int = 0) -> Iterator[tuple]:
        """Yield ``(depth, span)`` pairs depth-first, self included."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass
class TraceRecord:
    """Frozen outcome of one traced run: root spans plus metrics."""

    name: str = "trace"
    attrs: Dict[str, object] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        """Sum of the root spans' simulated times."""
        return sum(span.simulated_seconds for span in self.spans)

    def phase_names(self) -> List[str]:
        """Names of the root (phase-level) spans, in order."""
        return [span.name for span in self.spans]

    def phases(self) -> List[PhaseResult]:
        """The run's phase breakdown: its finished root spans, in order.

        A root span opened with ``phase=False`` (the spill gate) is traced
        but is no phase; a root span whose block raised before it priced
        any work (unfinished) has nothing to report.
        """
        return [span.phase_result for span in self.spans
                if span.finished and span.attrs.get("phase", True)]

    def span(self, name: str) -> Span:
        """The first span named ``name`` anywhere in the tree.

        Raises ``KeyError`` if the trace holds no such span.
        """
        for root in self.spans:
            for _, sp in root.walk():
                if sp.name == name:
                    return sp
        raise KeyError(
            f"trace {self.name!r} has no span named {name!r}; "
            f"root spans: {self.phase_names()}"
        )

    def walk(self) -> Iterator[tuple]:
        """Yield ``(depth, span)`` pairs across all root spans."""
        for root in self.spans:
            yield from root.walk()

    def metric_value(self, name: str, default: object = None) -> object:
        """The scalar value of a counter/gauge metric in this trace.

        Histograms have no single value; asking for one raises
        ``KeyError`` so callers notice the kind mismatch.  Missing
        metrics return ``default`` — serving-layer checks use this to
        assert both presence (``metric_value("serve.cache_hit")``) and
        absence (default stays ``None``) without reaching into the raw
        snapshot dicts.
        """
        snap = self.metrics.get(name)
        if snap is None:
            return default
        if "value" not in snap:
            raise KeyError(
                f"metric {name!r} is a {snap.get('kind', 'unknown')} and "
                "has no scalar value")
        return snap["value"]

    @staticmethod
    def from_phases(algorithm: str, phases: List[PhaseResult],
                    **attrs) -> "TraceRecord":
        """Build a flat trace from an existing phase breakdown.

        Used for results produced without an active tracer (e.g. the
        analytic executors), so every benchmark emits a uniform artifact.
        """
        spans = [
            Span(
                name=p.name,
                counters=p.counters,
                details=dict(p.details),
                wall_seconds=p.wall_seconds,
                task_count=p.task_count,
                explicit_seconds=p.simulated_seconds,
            )
            for p in phases
        ]
        return TraceRecord(name=algorithm,
                           attrs={"algorithm": algorithm, **attrs},
                           spans=spans)


class Tracer:
    """Collects the span tree and metrics of one pipeline run."""

    def __init__(self, name: str = "trace", **attrs):
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs)
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a span nested under the innermost open span.

        The span must either be ``finish()``-ed inside the block or end up
        with children (whose simulated times it then sums); exiting cleanly
        with neither raises :class:`ExecutionError`.  A root span whose
        block raises is marked ``details["aborted"] = 1.0``.
        """
        span = Span(name=name, attrs=attrs)
        parent = self._stack[-1] if self._stack else None
        self._retain(span, parent)
        self._stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        except BaseException:
            if parent is None:
                span.details["aborted"] = 1.0
            raise
        finally:
            span.wall_seconds = time.perf_counter() - start
            self._stack.pop()
        if not span.finished:
            raise ExecutionError(
                f"span {name!r} exited without calling finish() "
                "and recorded no child spans"
            )

    def _retain(self, span: Span, parent: Optional[Span]) -> None:
        if parent is not None:
            parent.children.append(span)
        else:
            self.spans.append(span)

    @property
    def active_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def record(self) -> TraceRecord:
        """Freeze the tracer into an exportable TraceRecord."""
        if self._stack:
            raise ExecutionError(
                f"cannot record trace {self.name!r} with open spans: "
                f"{[s.name for s in self._stack]}"
            )
        return TraceRecord(
            name=self.name,
            attrs=dict(self.attrs),
            spans=list(self.spans),
            metrics=self.metrics.snapshot(),
        )


class NullTracer(Tracer):
    """Tracer that prices spans but retains nothing.

    Returned by :func:`current_tracer` when no tracer is active, so
    instrumented code never needs a None check.  Spans still behave
    (finish contract, wall timing); they are simply dropped, and the
    metrics registry is discarded on the fly.
    """

    def _retain(self, span: Span, parent: Optional[Span]) -> None:
        if parent is not None:
            parent.children.append(span)

    def record(self) -> TraceRecord:  # pragma: no cover - defensive
        raise ExecutionError("the null tracer records nothing")


_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar("repro_active_tracer",
                                                   default=None)


def current_tracer() -> Tracer:
    """The active tracer, or a throwaway :class:`NullTracer`."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        return tracer
    return NullTracer("null")


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the active tracer for the block."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def tracing(name: str = "trace", **attrs) -> Iterator[Tracer]:
    """Create and activate a fresh tracer for the block."""
    with activate(Tracer(name, **attrs)) as tracer:
        yield tracer


@contextmanager
def join_run(algorithm: str, join_input, meta: Optional[Dict] = None,
             **attrs) -> Iterator[tuple]:
    """The run skeleton every join pipeline opens.

    Yields ``(result, tracer, faults)``: a fresh :class:`JoinResult`
    (``meta`` plus the ambient backend), the run's :class:`Tracer` (extra
    ``attrs`` land on the trace) and its fault scope, both active for the
    block, with ``join.tuples_scanned`` counted.  The block sets the
    output summary; on a clean exit the skeleton counts
    ``join.output_tuples`` and attaches peak RSS, the fault reports, the
    trace and the phases derived from it (:meth:`TraceRecord.phases`).
    """
    from repro.faults.scope import fault_scope  # cycle: faults import us

    n_r, n_s = len(join_input.r), len(join_input.s)
    result = JoinResult(
        algorithm=algorithm, n_r=n_r, n_s=n_s,
        output_count=0, output_checksum=0,
        meta={**(meta or {}), "backend": current_backend()},
    )
    tracer = Tracer(algorithm, algorithm=algorithm, n_r=n_r, n_s=n_s,
                    **attrs)
    with activate(tracer), fault_scope(algorithm) as faults:
        tracer.metrics.counter("join.tuples_scanned").inc(n_r + n_s)
        yield result, tracer, faults
        tracer.metrics.counter("join.output_tuples").inc(result.output_count)
    result.meta["peak_rss_bytes"] = peak_rss_bytes()
    result.faults = faults.reports
    result.trace = tracer.record()
    result.phases = result.trace.phases()


def verify_result_trace(result, tolerance: float = 1e-6) -> Optional[str]:
    """Check a JoinResult's trace for internal consistency.

    Returns ``None`` when the trace exists and its root spans' simulated
    seconds sum to the result's reported total within ``tolerance``;
    otherwise a human-readable description of the problem.
    """
    trace = getattr(result, "trace", None)
    if trace is None:
        return f"{result.algorithm}: result carries no trace"
    total = result.simulated_seconds
    traced = trace.simulated_seconds
    scale = max(abs(total), abs(traced), 1.0)
    if abs(total - traced) > tolerance * scale:
        return (
            f"{result.algorithm}: trace spans sum to {traced!r} s but the "
            f"result reports {total!r} s (phases: {trace.phase_names()})"
        )
    return None

"""Per-layer wall time, measured from outside the program.

The traced pass of the benchmark wraps the public functions listed in
:data:`LAYERS`.  Installing a wrapper rebinds the attribute where the
function is defined *and* every ``repro.*`` module attribute that still
points at the original, because a module that did ``from x import f``
holds its own reference.  Methods are rebound on their class.  Nothing
under ``src/`` is edited, and :meth:`Installation.restore` puts every
binding back.

Each call becomes one span ``(id, parent, name, start, end, op, count,
is_async)``: ``parent`` is the enclosing wrapped call (tracked per asyncio
task through a context variable), ``op`` the join or request it belongs
to, ``count`` the work the call did (tuples, bytes, morsels, keys) where
the layer has such a count.  Spans stay in memory until the run writes
them out.

A span's *self time* is its duration minus the part its direct children
cover.  Async spans (the daemon's request path) interleave with other
requests on the event loop, so they get no self time.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = namedtuple("Span", "id parent name start end op count is_async")


class LayerError(RuntimeError):
    """A wrapped public name no longer resolves."""


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(index: int, name: str) -> Callable:
    return lambda args, kwargs, result: len(_arg(args, kwargs, index, name))


def _copied_bytes(args, kwargs, ref) -> int:
    # File-backed and inline refs ship without a copy into shared memory.
    if getattr(ref, "shm_name", None) is None:
        return 0
    return int(getattr(_arg(args, kwargs, 1, "array"), "nbytes", 0))


@dataclass(frozen=True)
class Target:
    """One public callable of a layer, as ``module:qualname``."""

    path: str
    #: ``(args, kwargs, result) -> int``: the work one call did.
    count: Optional[Callable] = None
    #: ``(args, kwargs) -> op id``: calls of this target are op roots.
    op_id: Optional[Callable] = None

    @property
    def short_name(self) -> str:
        return self.path.rpartition(".")[2].rpartition(":")[2]


#: Layer name (a ``src/repro`` module area) -> its wrapped public callables.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "data": (
        Target("repro.data.zipf:ZipfWorkload.generate"),
        Target("repro.data.generators:uniform_input"),
        Target("repro.data.stream:stream_zipf_input"),
    ),
    "hash": (
        Target("repro.cpu.hashing:hash_keys"),
    ),
    "partition": (
        Target("repro.cpu.partition:partition_pass"),
        Target("repro.cpu.partition:refine_pass"),
        Target("repro.gpu.partitioning:gbase_partition"),
        Target("repro.gpu.partitioning:gsh_partition"),
        Target("repro.core.csh.hybrid_partition:partition_r_hybrid"),
        Target("repro.core.csh.hybrid_partition:partition_s_hybrid"),
    ),
    "skew": (
        Target("repro.core.csh.detector:detect_skewed_keys",
               count=lambda a, k, r: r.n_skewed),
        Target("repro.core.gsh.detector:detect_partition_skew",
               count=lambda a, k, r: r.all_skewed_keys().size),
        Target("repro.core.gsh.split:split_large_partitions"),
        Target("repro.core.gsh.skew_join:skew_join_phase"),
    ),
    "table": (
        Target("repro.cpu.chained_table:ChainedHashTable.build",
               count=_size(1, "keys")),
        Target("repro.cpu.chained_table:ChainedHashTable.probe_grouped",
               count=_size(1, "s_keys")),
        Target("repro.cpu.chained_table:ChainedHashTable.probe_lockstep",
               count=_size(1, "s_keys")),
    ),
    "match": (
        Target("repro.exec.matching:match_group_stats",
               count=_size(0, "r_keys")),
        Target("repro.exec.matching:expand_pairs",
               count=lambda a, k, r: len(r[0])),
    ),
    "output": (
        Target("repro.exec.output:JoinOutputBuffer.write_pairs"),
        Target("repro.exec.output:JoinOutputBuffer.write_cartesian"),
    ),
    "parallel": (
        Target("repro.exec.parallel.pool:WorkerPool.run",
               count=_size(2, "task_specs")),
        Target("repro.exec.parallel.arena:SharedArena.share",
               count=_copied_bytes),
    ),
    "store": (
        Target("repro.store.chunks:ChunkStore.read_array"),
        Target("repro.store.relations:SegmentedColumn.segment"),
        Target("repro.store.relations:SegmentedColumn.gather"),
    ),
    "accounting": (
        Target("repro.cpu.threads:ThreadPool.static_phase_seconds"),
        Target("repro.cpu.threads:ThreadPool.queue_phase_seconds"),
        Target("repro.gpu.simulator:GPUSimulator.launch"),
        Target("repro.gpu.gbase.join_kernels:probe_block_counters"),
    ),
    "faults": (
        Target("repro.faults.recovery:run_task_with_recovery"),
    ),
    "serve": (
        Target("repro.serve.protocol:relation_from_spec"),
        Target("repro.serve.protocol:encode_message"),
        Target("repro.serve.protocol:decode_message"),
        Target("repro.serve.engine:ServeEngine.probe",
               op_id=lambda a, k: _arg(a, k, 1, "request").trace_id),
        Target("repro.serve.admission:AdmissionController.admit"),
        Target("repro.serve.cache:BuildCache.get_or_build",
               count=lambda a, k, r: int(r[1])),
    ),
}

#: Name of the root span the benchmark opens around each batch op.
OP_SPAN = "op"
#: Name of the daemon's per-request root span.
REQUEST_SPAN = "serve.probe"
ROOT_SPANS = (OP_SPAN, REQUEST_SPAN)


class Tracer:
    """The spans of one traced process, kept in memory until written."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._parent = contextvars.ContextVar("perf_span_parent", default=None)
        self._op = contextvars.ContextVar("perf_span_op", default=None)

    def _enter(self, op_id=None):
        sid = next(self._ids)
        parent = self._parent.get()
        tokens = (self._parent.set(sid),
                  self._op.set(op_id) if op_id is not None else None)
        return sid, parent, self._op.get(), tokens

    def _exit(self, tokens) -> None:
        parent_token, op_token = tokens
        if op_token is not None:
            self._op.reset(op_token)
        self._parent.reset(parent_token)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None,
             op_id: Optional[Callable] = None) -> Callable:
        """A callable that runs ``fn`` and records one span per call."""
        inner = getattr(fn, "__wrapped__", None)
        if inner is not None and inspect.isasyncgenfunction(inner):
            return self._wrap_async_cm(fn, name)
        spans, clock = self.spans, self.clock
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid, parent, op, tokens = self._enter(
                    op_id(args, kwargs) if op_id else None)
                start = clock()
                result = done = None
                try:
                    result = await fn(*args, **kwargs)
                    done = True
                    return result
                finally:
                    end = clock()
                    self._exit(tokens)
                    n = count(args, kwargs, result) if count and done else None
                    spans.append((sid, parent, name, start, end, op, n, True))
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, op, tokens = self._enter(
                op_id(args, kwargs) if op_id else None)
            start = clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                self._exit(tokens)
                n = count(args, kwargs, result) if count and done else None
                spans.append((sid, parent, name, start, end, op, n, False))
        return traced

    def _wrap_async_cm(self, fn: Callable, name: str) -> Callable:
        """Async context managers: the span is the wait to enter."""
        tracer = self

        class _TimedEnter:
            def __init__(self, cm):
                self._cm = cm

            async def __aenter__(self):
                sid = next(tracer._ids)
                parent, op = tracer._parent.get(), tracer._op.get()
                start = tracer.clock()
                try:
                    return await self._cm.__aenter__()
                finally:
                    tracer.spans.append((sid, parent, name, start,
                                         tracer.clock(), op, None, True))

            async def __aexit__(self, *exc_info):
                return await self._cm.__aexit__(*exc_info)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedEnter(fn(*args, **kwargs))
        return traced

    @contextmanager
    def op(self, op_id):
        """Root span around one benchmark op (a join)."""
        sid, parent, op, tokens = self._enter(op_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._exit(tokens)
            self.spans.append((sid, parent, OP_SPAN, start, end, op, None,
                               False))

    def records(self) -> List[Span]:
        return [Span._make(s) for s in self.spans]


def write_spans(spans: Iterable[Span], path, mode: str = "w",
                **fields) -> None:
    """One JSON object per span; ``fields`` are added to every line."""
    with open(path, mode) as fh:
        for s in spans:
            fh.write(json.dumps({**s._asdict(), **fields}) + "\n")


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds over a bare call (no-op function)."""
    def noop(x):
        return x

    traced = Tracer().wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


# ---------------------------------------------------------------- install


def _import_all_repro() -> None:
    """Import every ``repro`` module so every by-name binding exists."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(layer: str, target: Target):
    module_name, _, qualname = target.path.partition(":")
    *outer, attr = qualname.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in outer:
            owner = getattr(owner, part)
        original = (owner.__dict__[attr] if inspect.isclass(owner)
                    else getattr(owner, attr))
    except (ImportError, AttributeError, KeyError) as exc:
        raise LayerError(f"layer {layer!r}: {target.path} no longer "
                         f"resolves ({type(exc).__name__}: {exc})") from None
    if not inspect.isfunction(original):
        raise LayerError(f"layer {layer!r}: {target.path} is not a plain "
                         f"function ({type(original).__name__})")
    return owner, attr, original


class Installation:
    """Wrappers in place; :meth:`restore` undoes every rebinding."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        #: span name -> number of attributes rebound to its wrapper.
        self.bindings: Dict[str, int] = {}

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer,
            layers: Dict[str, Tuple[Target, ...]] = LAYERS) -> Installation:
    """Wrap every target of ``layers``; raises :class:`LayerError` when a
    name no longer resolves (naming the layer)."""
    _import_all_repro()
    resolved = [(layer, target, *_resolve(layer, target))
                for layer, targets in layers.items() for target in targets]
    installation = Installation()
    wrappers = {}
    for layer, target, owner, attr, original in resolved:
        name = f"{layer}.{target.short_name}"
        wrapper = tracer.wrap(original, name, target.count, target.op_id)
        installation.bindings[name] = 0
        if inspect.isclass(owner):
            installation._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            installation.bindings[name] = 1
        else:
            wrappers[id(original)] = (original, wrapper, name)
    # Rebind the defining module and every module that imported by name.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                installation._undo.append((module, attr, value))
                setattr(module, attr, hit[1])
                installation.bindings[hit[2]] += 1
    return installation


# ---------------------------------------------------------------- analysis


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: List[Span]) -> Dict[int, List[Tuple[float, float]]]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return children


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> self time, for sync spans only."""
    children = _children(spans)
    return {s.id: max(0.0, (s.end - s.start)
                      - _covered(s.start, s.end, children[s.id]))
            for s in spans if not s.is_async}


def coverage(window: List[Span]) -> float:
    """Share of op wall time spent inside some layer span.

    An op is a batch join or one served request.  Its own child spans
    cover it and so, while a request awaits, do the sync spans of
    whatever else the event loop ran meanwhile: that time belongs to a
    layer, just not to this request.
    """
    roots = [s for s in window if s.name in ROOT_SPANS]
    merged: List[List[float]] = []
    for start, end in sorted((s.start, s.end) for s in window
                             if not s.is_async and s.name not in ROOT_SPANS):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [m[0] for m in merged]
    ends = [m[1] for m in merged]
    children = _children(window)
    total = covered = 0.0
    for r in roots:
        nearby = merged[bisect.bisect_right(ends, r.start):
                        bisect.bisect_left(starts, r.end)]
        covered += _covered(r.start, r.end,
                            children[r.id] + [tuple(m) for m in nearby])
        total += r.end - r.start
    return covered / total if total else 0.0


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def in_window(spans: List[Span], ops, start: float, end: float) -> List[Span]:
    """Spans of the given ops, plus op-less spans inside ``[start, end]``."""
    ops = set(ops)
    return [s for s in spans
            if s.op in ops or (s.op is None and s.start >= start
                               and s.end <= end)]


def layer_metrics(spans: List[Span], window: List[Span], n_ops: int,
                  op_input_bytes: int, wrapper_seconds: float,
                  setup_end: float) -> Dict[str, float]:
    """Per-op layer metrics of one traced window.

    ``spans`` are all spans of the process (ids resolve parents),
    ``window`` the ones belonging to the measured ops; every time and
    count is divided by ``n_ops``.  ``setup_end`` bounds the input
    generation that ``data.gen_s`` reports.
    """
    n = max(n_ops, 1)
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in window:
        dur[s.name] += s.end - s.start
        self_s[s.name] += selfs.get(s.id, 0.0)
        calls[s.name] += 1
        counts[s.name] += s.count or 0

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if layer_of(k) == layer)

    def under(span: Span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    build_tuples = counts["table.build"]
    indexed_r = sum(s.count or 0 for s in window
                    if s.name == "match.match_group_stats"
                    and (under(s, "table.probe_grouped")
                         or under(s, "table.probe_lockstep")))
    segment_calls = calls["store.segment"]
    lookups = calls["serve.get_or_build"]
    top_level = sum(s.end - s.start for s in window if s.parent is None)
    wrapped_calls = sum(1 for s in window if s.name != OP_SPAN)
    data_gen = sum(s.end - s.start for s in spans
                   if layer_of(s.name) == "data" and s.end <= setup_end
                   and layer_of(getattr(by_id.get(s.parent), "name", "")) != "data")
    return {
        "data.gen_s": data_gen,
        "hash.self_s": self_s["hash.hash_keys"] / n,
        "partition.self_s": layer_sum(self_s, "partition") / n,
        "partition.calls": layer_sum(calls, "partition") / n,
        "skew.self_s": layer_sum(self_s, "skew") / n,
        "skew.keys_detected": (counts["skew.detect_skewed_keys"]
                               + counts["skew.detect_partition_skew"]) / n,
        "table.build_s": dur["table.build"] / n,
        "table.build_tuples": build_tuples / n,
        "table.probe_self_s": (self_s["table.probe_grouped"]
                               + self_s["table.probe_lockstep"]) / n,
        "table.probe_tuples": (counts["table.probe_grouped"]
                               + counts["table.probe_lockstep"]) / n,
        "match.stats_s": dur["match.match_group_stats"] / n,
        "match.expand_s": dur["match.expand_pairs"] / n,
        "match.r_tuples": counts["match.match_group_stats"] / n,
        "match.pairs_materialized": counts["match.expand_pairs"] / n,
        "match.r_reindex_ratio": (indexed_r / build_tuples
                                  if build_tuples else 0.0),
        "output.write_s": layer_sum(dur, "output") / n,
        "parallel.run_s": dur["parallel.run"] / n,
        "parallel.morsels": counts["parallel.run"] / n,
        "parallel.share_s": dur["parallel.share"] / n,
        "parallel.share_bytes": counts["parallel.share"] / n,
        "parallel.copy_amplification": (
            counts["parallel.share"] / (op_input_bytes * n)
            if op_input_bytes else 0.0),
        "store.read_s": dur["store.read_array"] / n,
        "store.reads": calls["store.read_array"] / n,
        "store.gather_s": dur["store.gather"] / n,
        "store.page_hit_ratio": (1.0 - calls["store.read_array"] / segment_calls
                                 if segment_calls else 0.0),
        "accounting.self_s": layer_sum(self_s, "accounting") / n,
        "faults.self_s": layer_sum(self_s, "faults") / n,
        "serve.spec_s": dur["serve.relation_from_spec"] / n,
        "serve.codec_s": (dur["serve.encode_message"]
                          + dur["serve.decode_message"]) / n,
        "serve.engine_s": dur[REQUEST_SPAN] / n,
        "serve.admission_wait_s": dur["serve.admit"] / n,
        "serve.build_s": sum(s.end - s.start for s in window
                             if s.name == "serve.get_or_build"
                             and not s.count) / n,
        "serve.cache_hit_ratio": (counts["serve.get_or_build"] / lookups
                                  if lookups else 0.0),
        "trace.coverage": coverage(window),
        "trace.overhead": (wrapped_calls * wrapper_seconds / top_level
                           if top_level else 0.0),
    }


#: Layers that must fire on exactly the workloads that declare them.
GUARDED_LAYERS = ("parallel", "store", "serve")
MIN_COVERAGE = 0.90
MAX_OVERHEAD = 0.05


def check_trace(workload: str, expected_layers: Iterable[str],
                window: List[Span], metrics: Dict[str, float]) -> List[str]:
    """Problems that make a traced run invalid (empty list: valid)."""
    problems = []
    fired = {layer_of(s.name) for s in window}
    expected = set(expected_layers)
    for layer in GUARDED_LAYERS:
        if layer in fired and layer not in expected:
            problems.append(f"layer {layer!r} fired on {workload}, which "
                            "should bypass it")
        elif layer in expected and layer not in fired:
            problems.append(f"layer {layer!r} never fired on {workload} "
                            "(silently bypassed)")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {metrics['trace.coverage']:.3f} "
                        f"< {MIN_COVERAGE}: layer spans miss op wall time")
    if metrics["trace.overhead"] > MAX_OVERHEAD:
        problems.append(f"trace.overhead {metrics['trace.overhead']:.3f} "
                        f"> {MAX_OVERHEAD}: wrappers distort the timing")
    return problems

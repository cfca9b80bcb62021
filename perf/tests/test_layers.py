import asyncio
import sys
import types

import pytest

import layers
from layers import LayerError, Span, Target, Tracer, install, self_times


def _span(sid, parent, name, start, end, op=0, count=None, is_async=False):
    return Span(sid, parent, name, start, end, op, count, is_async)


NESTED = [
    _span(1, None, "op", 0.0, 10.0),
    _span(2, 1, "table.build", 1.0, 5.0, count=100),
    _span(3, 2, "hash.hash_keys", 2.0, 3.0),
    _span(4, 2, "hash.hash_keys", 3.5, 4.0),
    _span(5, 1, "faults.run_task_with_recovery", 6.0, 9.0),
    _span(6, 5, "table.probe_grouped", 6.5, 8.5, count=40),
    _span(7, 6, "match.match_group_stats", 7.0, 8.0, count=100),
    _span(8, None, "serve.probe", 0.0, 2.0, is_async=True),
]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(NESTED)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[2] == pytest.approx(4.0 - 1.0 - 0.5)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0 - 2.0)
    assert selfs[6] == pytest.approx(2.0 - 1.0)
    assert 8 not in selfs  # async spans get no self time


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, None, "op", 0.0, 10.0),
             _span(2, 1, "a.x", 1.0, 6.0, is_async=True),
             _span(3, 1, "a.y", 4.0, 8.0, is_async=True)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_layer_metrics_per_op_and_coverage():
    window = [s for s in NESTED if s.op == 0 and s.name != "serve.probe"]
    metrics = layers.layer_metrics(NESTED, window, n_ops=2,
                                   op_input_bytes=8, wrapper_seconds=0.0,
                                   setup_end=0.0)
    assert metrics["table.build_s"] == pytest.approx(4.0 / 2)
    assert metrics["table.build_tuples"] == pytest.approx(100 / 2)
    assert metrics["hash.self_s"] == pytest.approx(1.5 / 2)
    assert metrics["table.probe_self_s"] == pytest.approx(1.0 / 2)
    assert metrics["match.r_reindex_ratio"] == pytest.approx(1.0)
    assert metrics["trace.coverage"] == pytest.approx(7.0 / 10.0)


def test_coverage_counts_other_requests_work_while_awaiting():
    window = [
        _span(1, None, "serve.probe", 0.0, 10.0, op="a", is_async=True),
        _span(2, 1, "faults.run_task_with_recovery", 0.0, 4.0, op="a"),
        _span(3, None, "serve.probe", 4.0, 8.0, op="b", is_async=True),
        _span(4, 3, "faults.run_task_with_recovery", 4.0, 7.0, op="b"),
        _span(5, 1, "faults.run_task_with_recovery", 8.0, 9.0, op="a"),
    ]
    # a: its own 0-4 and 8-9 plus b's 4-7 while a awaited; b: 4-7.
    assert layers.coverage(window) == pytest.approx((8.0 + 3.0) / 14.0)


SOURCE = '''
def f(x):
    return x + 1


class C:
    def m(self, xs):
        return len(xs)
'''


@pytest.fixture
def fake_modules(monkeypatch):
    src = types.ModuleType("repro._perf_fake_src")
    exec(SOURCE, src.__dict__)
    user_a = types.ModuleType("repro._perf_fake_a")
    user_a.f = src.f
    user_b = types.ModuleType("repro._perf_fake_b")
    user_b.renamed = src.f
    for module in (src, user_a, user_b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return src, user_a, user_b


def test_install_rebinds_a_function_imported_by_name(fake_modules):
    src, user_a, user_b = fake_modules
    original_f, original_m = src.f, src.C.__dict__["m"]
    tracer = Tracer()
    installation = install(tracer, {"fake": (
        Target("repro._perf_fake_src:f"),
        Target("repro._perf_fake_src:C.m", count=layers._size(1, "xs")),
    )})
    try:
        assert user_a.f is user_b.renamed is src.f
        assert src.f is not original_f
        assert installation.bindings == {"fake.f": 3, "fake.m": 1}
        assert user_a.f(1) == 2 and user_b.renamed(2) == 3
        assert src.C().m([1, 2, 3]) == 3
    finally:
        installation.restore()
    assert user_a.f is user_b.renamed is src.f is original_f
    assert src.C.__dict__["m"] is original_m
    names = [(s.name, s.count) for s in tracer.records()]
    assert names == [("fake.f", None), ("fake.f", None), ("fake.m", 3)]


def test_a_name_that_no_longer_resolves_names_its_layer(fake_modules):
    with pytest.raises(LayerError, match="layer 'gone'.*_perf_fake_src:g"):
        install(Tracer(), {"gone": (Target("repro._perf_fake_src:g"),)})


def test_every_wrapped_public_name_resolves():
    tracer = Tracer()
    installation = install(tracer)
    try:
        from repro.cpu import chained_table, hashing
        assert chained_table.hash_keys is hashing.hash_keys
        assert installation.bindings["hash.hash_keys"] > 1
        assert installation.bindings["match.match_group_stats"] >= 1
    finally:
        installation.restore()
    from repro.cpu import chained_table, hashing
    assert not hasattr(hashing.hash_keys, "__wrapped__")
    assert chained_table.hash_keys is hashing.hash_keys


def test_async_spans_keep_their_own_parent_and_op():
    tracer = Tracer()

    async def inner(x):
        await asyncio.sleep(0)
        return x

    traced_inner = tracer.wrap(inner, "l.inner")

    async def outer(x):
        await asyncio.sleep(0)
        return await traced_inner(x)

    traced_outer = tracer.wrap(outer, "l.outer",
                               op_id=lambda args, kwargs: f"req{args[0]}")

    async def main():
        return await asyncio.gather(traced_outer(1), traced_outer(2))

    assert asyncio.run(main()) == [1, 2]
    spans = {s.id: s for s in tracer.records()}
    inners = [s for s in spans.values() if s.name == "l.inner"]
    assert len(inners) == 2
    for s in inners:
        parent = spans[s.parent]
        assert parent.name == "l.outer" and parent.op == s.op
        assert s.is_async and parent.is_async


def test_async_context_manager_span_is_the_wait_to_enter():
    from contextlib import asynccontextmanager
    tracer = Tracer()

    @asynccontextmanager
    async def gate():
        await asyncio.sleep(0)
        yield "slot"

    traced = tracer.wrap(gate, "serve.admit")

    async def main():
        async with traced() as slot:
            return slot

    assert asyncio.run(main()) == "slot"
    [span] = tracer.records()
    assert span.name == "serve.admit" and span.is_async


def test_check_trace_flags_bypassed_and_unexpected_layers():
    window = [_span(1, None, "op", 0.0, 1.0),
              _span(2, 1, "store.read_array", 0.0, 1.0)]
    good = {"trace.coverage": 1.0, "trace.overhead": 0.0}
    assert layers.check_trace("w", ["store"], window, good) == []
    problems = layers.check_trace("w", ["parallel"], window,
                                  {"trace.coverage": 0.5,
                                   "trace.overhead": 0.2})
    assert len(problems) == 4
    assert any("'store' fired" in p for p in problems)
    assert any("'parallel' never fired" in p for p in problems)

"""Engine semantics: cold/warm identity, admission, faults, versions."""

import asyncio
import gc
import weakref

import pytest

from repro.api import make_join
from repro.data.zipf import ZipfWorkload
from repro.errors import AdmissionError, ServeError, UnrecoveredFaultError
from repro.exec.matching import KeyGroupIndex
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.report import verify_result_faults
from repro.obs import verify_result_trace
from repro.serve.admission import AdmissionController
from repro.serve.engine import ProbeRequest, ServeEngine

N = 2048
THETA = 1.0
SEED = 42


@pytest.fixture(scope="module")
def workload():
    return ZipfWorkload(N, N, THETA, seed=SEED).generate()


@pytest.fixture()
def engine(workload):
    eng = ServeEngine()
    eng.register("orders", workload.r)
    return eng


def probe(engine, workload, **kwargs):
    return engine.probe_sync(
        ProbeRequest(relation_id="orders", probe=workload.s, **kwargs))


def test_served_answer_matches_direct_run(engine, workload):
    direct = make_join("cbase").run(workload)
    outcome = probe(engine, workload)
    assert outcome.result.output_count == direct.output_count
    assert outcome.result.output_checksum == direct.output_checksum


def test_cold_then_warm_have_identical_answers(engine, workload):
    cold = probe(engine, workload)
    warm = probe(engine, workload)
    assert cold.summary.count == warm.summary.count
    assert cold.summary.checksum == warm.summary.checksum
    assert not cold.cache_hit and warm.cache_hit


def test_warm_probe_skips_the_build_phase(engine, workload):
    cold = probe(engine, workload)
    warm = probe(engine, workload)
    assert [p.name for p in cold.result.phases] == ["build", "probe"]
    assert [p.name for p in warm.result.phases] == ["probe"]
    # The missing build span is the observable "skipped the build" proof.
    assert cold.result.trace.phase_names() == ["build", "probe"]
    assert warm.result.trace.phase_names() == ["probe"]
    assert warm.result.simulated_seconds < cold.result.simulated_seconds


def test_cache_metrics_mark_hit_and_miss(engine, workload):
    cold = probe(engine, workload)
    warm = probe(engine, workload)
    assert cold.result.trace.metric_value("serve.cache_miss") == 1
    assert cold.result.trace.metric_value("serve.cache_hit") == 0
    assert warm.result.trace.metric_value("serve.cache_hit") == 1
    assert warm.result.trace.metric_value("serve.cache_miss") == 0
    assert warm.result.meta["cache_hit"] is True


def test_traces_stay_internally_consistent(engine, workload):
    for outcome in (probe(engine, workload), probe(engine, workload)):
        assert verify_result_trace(outcome.result) is None
        assert verify_result_faults(outcome.result) is None


def test_morsel_budget_controls_chunk_count(engine, workload):
    outcome = probe(engine, workload, morsel_tuples=256)
    assert len(outcome.chunks) == N // 256
    assert [c["index"] for c in outcome.chunks] == list(range(N // 256))
    assert sum(c["tuples"] for c in outcome.chunks) == N
    assert sum(c["count"] for c in outcome.chunks) == \
        outcome.result.output_count


def test_all_morsels_of_a_probe_share_one_key_index(engine, workload,
                                                    monkeypatch):
    built = []
    init = KeyGroupIndex.__init__

    def counting_init(self, *args):
        built.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(KeyGroupIndex, "__init__", counting_init)
    for _ in range(2):  # cold, then warm: one index per request either way
        outcome = probe(engine, workload, morsel_tuples=256)
        assert len(outcome.chunks) == N // 256
    assert built == [N, N]


def test_chunking_never_changes_the_answer(engine, workload):
    whole = probe(engine, workload)
    chunked = probe(engine, workload, morsel_tuples=64)
    assert chunked.summary.count == whole.summary.count
    assert chunked.summary.checksum == whole.summary.checksum


def test_concurrent_cold_probes_build_exactly_once(workload):
    engine = ServeEngine()
    engine.register("orders", workload.r)

    async def race():
        return await asyncio.gather(*[
            engine.probe(ProbeRequest(relation_id="orders",
                                      probe=workload.s))
            for _ in range(4)])

    outcomes = asyncio.run(race())
    assert engine.cache.info()["builds"] == 1
    summaries = {(o.result.output_count, o.result.output_checksum)
                 for o in outcomes}
    assert len(summaries) == 1
    # Exactly one request ran the build phase; the rest piggybacked.
    built = [o for o in outcomes
             if [p.name for p in o.result.phases] == ["build", "probe"]]
    assert len(built) == 1
    assert sum(1 for o in outcomes if o.result.meta["build_shared"]) == 3


def test_version_bump_serves_new_data_and_invalidates_stale(workload):
    engine = ServeEngine()
    v1 = engine.register("orders", workload.r)
    probe(engine, workload)
    assert engine.cache.peek(("orders", 1)) is not None
    replacement = ZipfWorkload(N, N, 0.0, seed=7).generate()
    v2 = engine.register("orders", replacement.r)
    assert (v1, v2) == (1, 2)
    assert engine.cache.peek(("orders", 1)) is None
    outcome = probe(engine, workload)
    assert outcome.result.meta["version"] == 2
    assert not outcome.cache_hit
    direct = make_join("cbase").run(
        type(workload)(r=replacement.r, s=workload.s))
    assert outcome.result.output_count == direct.output_count
    assert outcome.result.output_checksum == direct.output_checksum


def test_unknown_relation_and_version_raise_typed_errors(engine, workload):
    with pytest.raises(ServeError) as err:
        probe(ServeEngine(), workload)
    assert "register" in str(err.value)
    with pytest.raises(ServeError) as err:
        probe(engine, workload, version=9)
    assert err.value.context["latest"] == 1


def test_reregistering_releases_the_stale_version(workload):
    """Only the latest version's data is kept: a writer bumping versions
    must not grow the engine, and a probe pinning the old version gets
    the typed error naming the latest."""
    engine = ServeEngine()
    stale = ZipfWorkload(N, N, 0.0, seed=5).generate().r
    engine.register("orders", stale)
    probe(engine, workload, version=1)
    stale_ref = weakref.ref(stale)
    del stale
    engine.register("orders", workload.r)
    gc.collect()
    assert stale_ref() is None
    assert engine.resolve("orders") == (2, workload.r)
    with pytest.raises(ServeError) as err:
        probe(engine, workload, version=1)
    assert err.value.context["version"] == 1
    assert err.value.context["latest"] == 2
    assert probe(engine, workload, version=2).result.meta["version"] == 2


def test_admission_refuses_over_budget_probes(workload):
    engine = ServeEngine(
        admission=AdmissionController(max_morsels=4))
    engine.register("orders", workload.r)
    with pytest.raises(AdmissionError) as err:
        probe(engine, workload, morsel_tuples=64)
    assert err.value.context["max_morsels"] == 4
    assert engine.admission.rejected == 1
    assert engine.failed == 1
    # A within-budget probe still succeeds afterwards.
    assert probe(engine, workload).result.output_count > 0


def test_saturated_server_sheds_load(workload):
    engine = ServeEngine(
        admission=AdmissionController(max_inflight=1, max_queue=0))
    engine.register("orders", workload.r)

    async def flood():
        results = await asyncio.gather(
            *[engine.probe(ProbeRequest(relation_id="orders",
                                        probe=workload.s,
                                        morsel_tuples=64))
              for _ in range(4)],
            return_exceptions=True)
        return results

    results = asyncio.run(flood())
    refused = [r for r in results if isinstance(r, AdmissionError)]
    served = [r for r in results if not isinstance(r, Exception)]
    assert refused and served
    assert len(refused) + len(served) == 4
    assert engine.admission.rejected == len(refused)


def test_recovered_fault_leaves_answer_identical(engine, workload):
    clean = probe(engine, workload)
    plan = FaultPlan((FaultSpec(kind="worker-crash", point="task"),))
    faulty = probe(engine, workload, faults=plan)
    assert faulty.summary.count == clean.summary.count
    assert faulty.summary.checksum == clean.summary.checksum
    assert len(faulty.result.faults) == 1
    assert faulty.result.faults[0].recovered
    assert verify_result_faults(faulty.result) is None


def test_exhausted_retries_raise_unrecovered_with_report(engine, workload):
    plan = FaultPlan(
        (FaultSpec(kind="worker-crash", point="task", repeat=9),))
    with pytest.raises(UnrecoveredFaultError) as err:
        probe(engine, workload, faults=plan)
    assert err.value.report is not None
    assert not err.value.report.recovered
    assert engine.failed == 1
    # The engine still answers cleanly afterwards.
    assert probe(engine, workload).cache_hit


def test_build_capacity_fault_regrows_and_recovers(workload):
    engine = ServeEngine()
    engine.register("orders", workload.r)
    plan = FaultPlan(
        (FaultSpec(kind="capacity-overflow", point="capacity"),))
    outcome = probe(engine, workload, faults=plan)
    direct = make_join("cbase").run(workload)
    assert outcome.result.output_count == direct.output_count
    assert len(outcome.result.faults) == 1
    assert outcome.result.faults[0].action == "regrow"


def test_stats_snapshot_counts_requests(engine, workload):
    probe(engine, workload)
    probe(engine, workload)
    stats = engine.stats()
    assert stats["requests"] == 2
    assert stats["completed"] == 2
    assert stats["relations"] == {"orders": 1}
    assert stats["cache"]["hits"] == 1
    assert stats["admission"]["admitted"] == 2

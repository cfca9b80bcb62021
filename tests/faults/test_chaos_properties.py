"""Chaos property: every injected fault recovers exactly or fails typed.

The invariant under test is the one ``repro chaos`` enforces in CI: for
every fault class applicable to every algorithm, the faulted run either
completes with output identical to the fault-free baseline (reports and
trace counters consistent), or raises a ReproError subclass that carries
the episode's FailureReport — never a bare traceback, never silently
wrong output.  The sweep records into the runner's ledger, one group of
checks per (algorithm, spec), each named by the spec's label.
"""

import pytest

from repro.data.zipf import ZipfWorkload
from repro.faults.chaos import PIPELINE_MIN_TUPLES, Checks, run_chaos
from repro.faults.plan import DEFAULT_CHAOS_ALGORITHMS, kinds_for, seeded_plan


@pytest.fixture(scope="module")
def chaos_input():
    # The chaos workload scale: the seeded plans' occurrence windows assume
    # every algorithm reaches >= 2 partition pairs.
    return ZipfWorkload(PIPELINE_MIN_TUPLES, PIPELINE_MIN_TUPLES, theta=1.0,
                        seed=7).generate()


def _sweep(chaos_input, seed, algorithms=DEFAULT_CHAOS_ALGORITHMS):
    checks = Checks()
    run_chaos(checks, chaos_input, seed=seed, algorithms=algorithms)
    return checks


@pytest.mark.parametrize("seed", [0, 42])
def test_full_sweep_recovers_or_fails_typed(chaos_input, seed):
    checks = _sweep(chaos_input, seed)
    assert checks.ok, checks.render(f"chaos seed {seed}")
    specs = seeded_plan(seed).specs
    # Every applicable fault class of every algorithm was exercised.
    exercised = {(spec.algorithm, spec.kind) for spec in specs
                 if any(name.startswith(spec.label())
                        for name, _, _ in checks.checks)}
    expected = {(alg, kind)
                for alg in DEFAULT_CHAOS_ALGORITHMS
                for kind in kinds_for(alg)}
    assert exercised == expected
    # Each case recorded at least one injected fault episode.
    present = {name for name, ok, _ in checks.checks
               if ok and name.endswith(": injected report present")}
    for spec in specs:
        assert any(name.startswith(spec.label()) for name in present), \
            spec.label()


def test_sweep_renders_a_summary(chaos_input):
    checks = _sweep(chaos_input, seed=1, algorithms=("cbase", "gbase"))
    text = checks.render("chaos sweep")
    assert "chaos sweep: all" in text and "checks passed" in text
    assert all(spec.label() in text
               for spec in seeded_plan(1, ("cbase", "gbase")).specs)


def test_chaos_is_deterministic(chaos_input):
    first = _sweep(chaos_input, seed=3, algorithms=("cbase",))
    second = _sweep(chaos_input, seed=3, algorithms=("cbase",))
    assert first.checks == second.checks

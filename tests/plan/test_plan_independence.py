"""Property: planning never changes answers.

For any input, ``run --auto`` must be bit-identical to running the
rule's pick forced by hand through the environment — the way a user
would with ``--algorithm <pick>`` and ``REPRO_BACKEND``.  That includes
runs with injected faults: the same seeded fault plan must produce the
same recovery (or the same typed error) on both paths.

``REPRO_HYPOTHESIS_PROFILE=nightly`` deepens the search, matching the
backend property tests.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import make_join
from repro.data.zipf import ZipfWorkload
from repro.errors import ReproError
from repro.exec.backend import (
    BACKEND_ENV,
    BACKENDS,
    PARALLEL,
    parallel_status,
    use_backend,
)
from repro.exec.differential import compare_results
from repro.faults.plan import seeded_plan
from repro.faults.scope import activate_plan
from repro.plan import choose

_NIGHTLY = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "") == "nightly"

_SETTINGS = settings(
    max_examples=25 if _NIGHTLY else 6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: No budget (the default branch) or one below any input (the spill
#: branch), so both of the rule's picks get exercised.
_BUDGETS = st.sampled_from([None, 1])


@contextmanager
def _forced_env(backend):
    """Force a backend the way a user would: via the environment.

    Deliberately NOT ``use_backend`` — the property is that both routes
    land on identical code, so the reference goes through the env.
    """
    saved = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = backend
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = saved


def _outcome(fn):
    """A result, or the typed error's name — both comparable."""
    try:
        return fn()
    except ReproError as exc:
        return (type(exc).__name__,)


def _assert_identical(planned, forced, context):
    if isinstance(planned, tuple) or isinstance(forced, tuple):
        assert planned == forced, f"{context}: {planned!r} != {forced!r}"
    else:
        issues = compare_results(planned, forced)
        assert issues == [], f"{context}: {issues}"


@given(theta=st.sampled_from([0.0, 0.5, 1.0, 1.2]),
       seed=st.integers(min_value=0, max_value=2**16),
       budget=_BUDGETS)
@_SETTINGS
def test_planned_pick_matches_env_forced_run(theta, seed, budget):
    join_input = ZipfWorkload(300, 300, theta=theta, seed=seed).generate()
    pick = choose(join_input, budget)
    planned = pick.run(join_input)
    with _forced_env(pick.backend):
        forced = make_join(pick.algorithm).run(join_input)
    _assert_identical(planned, forced, pick.label())


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(min_value=0, max_value=2**8), budget=_BUDGETS)
@_SETTINGS
def test_every_backend_pick_matches_its_forced_run(backend, seed, budget):
    """The pick runs on the ambient backend, so every backend gets the
    same guarantee."""
    usable, reason = parallel_status()
    if backend == PARALLEL and not usable:
        pytest.skip(f"parallel backend unusable here: {reason}")
    join_input = ZipfWorkload(256, 256, theta=1.0, seed=seed).generate()
    with use_backend(backend):
        pick = choose(join_input, budget)
        planned = pick.run(join_input)
    assert pick.backend == backend
    with _forced_env(backend):
        forced = make_join(pick.algorithm).run(join_input)
    _assert_identical(planned, forced, pick.label())


@given(plan_seed=st.integers(min_value=0, max_value=2**16),
       seed=st.integers(min_value=0, max_value=2**8),
       budget=_BUDGETS)
@_SETTINGS
def test_planned_pick_matches_forced_run_under_injected_faults(plan_seed,
                                                               seed, budget):
    """Same seeded fault plan on both paths: same recovery and output,
    or the same typed error."""
    join_input = ZipfWorkload(192, 192, theta=1.0, seed=seed).generate()
    pick = choose(join_input, budget)
    faults = seeded_plan(plan_seed, algorithms=[pick.algorithm])

    def planned_run():
        with activate_plan(faults):
            return pick.run(join_input)

    def forced_run():
        with _forced_env(pick.backend), activate_plan(faults):
            return make_join(pick.algorithm).run(join_input)

    _assert_identical(_outcome(planned_run), _outcome(forced_run),
                      f"{pick.label()} faults@{plan_seed}")

"""Property: planning never changes answers.

For any input the planner may see, executing its pick must be
bit-identical to running the same (algorithm, backend, workers)
configuration forced by hand through the environment — the way a user
would with ``REPRO_BACKEND`` / ``REPRO_WORKERS``.  That includes runs
with injected faults: the same seeded fault plan must produce the same
recovery (or the same typed error) on both paths.

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
from repro.exec.backend import BACKEND_ENV, BACKENDS, PARALLEL, parallel_status
from repro.exec.differential import compare_results
from repro.faults.plan import seeded_plan
from repro.faults.scope import activate_plan
from repro.plan import Constraints, CorrectionStore, Planner

_NIGHTLY = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "") == "nightly"

_SETTINGS = settings(
    max_examples=25 if _NIGHTLY else 6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextmanager
def _forced_env(point):
    """Force one execution point the way a user would: via env vars.

    This is deliberately NOT the planner's own ``use_backend`` /
    ``pinned_workers`` path — the property is that both routes land on
    identical code, so the reference must go through the environment.
    """
    from repro.exec import parallel

    saved = {
        BACKEND_ENV: os.environ.get(BACKEND_ENV),
        parallel.WORKERS_ENV: os.environ.get(parallel.WORKERS_ENV),
    }
    os.environ[BACKEND_ENV] = point.backend
    os.environ[parallel.WORKERS_ENV] = str(point.workers)
    parallel.shutdown_pool()
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        parallel.shutdown_pool()


def _fresh_planner(**constraint_overrides):
    constraints = Constraints.from_environment(**constraint_overrides) \
        if constraint_overrides else None
    return Planner(corrections=CorrectionStore(), constraints=constraints)


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
       seed=st.integers(min_value=0, max_value=2**16))
@_SETTINGS
def test_planned_pick_matches_env_forced_run(theta, seed):
    join_input = ZipfWorkload(300, 300, theta=theta, seed=seed).generate()
    planner = _fresh_planner()
    plan = planner.plan(join_input)
    point = plan.chosen.point
    planned = planner.execute(join_input, plan)
    with _forced_env(point):
        forced = make_join(point.algorithm).run(join_input)
    _assert_identical(planned, forced, point.label())


@pytest.mark.parametrize("backend", BACKENDS)
@given(seed=st.integers(min_value=0, max_value=2**8))
@_SETTINGS
def test_every_backend_pick_matches_its_forced_run(backend, seed):
    """Pin the planner to one backend so all three get exercised even
    where the open argmin would never pick them (scalar)."""
    usable, reason = parallel_status()
    if backend == PARALLEL and not usable:
        pytest.skip(f"parallel backend unusable here: {reason}")
    join_input = ZipfWorkload(256, 256, theta=1.0, seed=seed).generate()
    planner = _fresh_planner(backends=(backend,))
    plan = planner.plan(join_input)
    point = plan.chosen.point
    assert point.backend == backend
    planned = planner.execute(join_input, plan)
    with _forced_env(point):
        forced = make_join(point.algorithm).run(join_input)
    _assert_identical(planned, forced, point.label())


@given(plan_seed=st.integers(min_value=0, max_value=2**16),
       seed=st.integers(min_value=0, max_value=2**8))
@_SETTINGS
def test_planned_pick_matches_forced_run_under_injected_faults(plan_seed,
                                                               seed):
    """Same seeded fault plan on both paths: same recovery and output,
    or the same typed error.  Planning itself happens fault-free (it
    never touches the pipelines), execution is what gets stormed."""
    join_input = ZipfWorkload(192, 192, theta=1.0, seed=seed).generate()
    planner = _fresh_planner()
    plan = planner.plan(join_input)
    point = plan.chosen.point
    faults = seeded_plan(plan_seed, algorithms=[point.algorithm])

    def planned_run():
        with activate_plan(faults):
            return planner.execute(join_input, plan)

    def forced_run():
        with _forced_env(point), activate_plan(faults):
            return make_join(point.algorithm).run(join_input)

    _assert_identical(_outcome(planned_run), _outcome(forced_run),
                      f"{point.label()} faults@{plan_seed}")

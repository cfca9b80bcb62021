"""Disk-fault and crash-recovery chaos: the ``repro chaos --spill`` harness.

Drives the full recovery ladder of the out-of-core spill plane, per
spill-capable algorithm (Cbase, CSH) on the ambient backend:

* **clean spill** — a budget-forced spilled run is bit-identical to the
  in-RAM baseline, with balanced traces and consistent fault counters;
* **seeded disk faults** — every disk fault kind (``torn-write``,
  ``enospc``, ``corrupt-chunk``, ``io-slow``) injected once from a
  seeded plan recovers exactly (same answer, >= 1 injected report);
* **ladder exhaustion** — a persistent write fault degrades the chunk
  back to RAM under a soft budget (recovered report, same answer) and
  raises a typed :class:`~repro.errors.SpillError` under ``--strict``;
  a persistent read fault is always a typed error, never a wrong array;
* **SIGKILL sweep** — a subprocess run is killed dead (``SIGKILL``, no
  atexit, no flush) after the k-th fsynced checkpoint for several k;
  ``resume_run`` must finish each corpse bit-identically, skipping the
  checkpointed pairs;
* **torn ledger tail / on-disk rot** — garbage appended to the ledger
  is discarded with a warning; a chunk file corrupted behind the
  manifest's back is dropped by resume revalidation and re-spilled.

Every scenario ends in exactly one of two states — a bit-identical
``JoinResult`` or a typed error carrying a ``FailureReport`` — checked by
the one contract in :mod:`repro.faults.chaos`; silent corruption fails
the sweep.  :func:`spill_source` makes this the ``spill`` source of the
one chaos runner (:func:`repro.faults.chaos.run_checks`).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.data.zipf import ZipfWorkload
from repro.errors import ConfigError
from repro.exec.backend import current_backend
from repro.faults.chaos import Checks, Source, expect_identical, expect_typed
from repro.faults.plan import (
    CORRUPT_CHUNK,
    DISK_FAULT_KINDS,
    ENOSPC,
    SPILL_ALGORITHM_NAMES,
    TORN_WRITE,
    FaultPlan,
    FaultSpec,
    injection_point,
    seeded_spill_plan,
)
from repro.faults.scope import activate_plan
from repro.store.checkpoint import KILL_AFTER_ENV, LEDGER_NAME
from repro.store.chunks import MANIFEST_NAME, _CHUNK_SUFFIX
from repro.store.resume import RUN_STATE_NAME, resume_run, write_run_state
from repro.store.spill import open_spill_session

#: How many checkpointed pairs each subprocess completes before SIGKILL.
KILL_POINTS = (1, 2)

#: Smallest ``--tuples`` the spill sweep accepts: below it a spilled run
#: checkpoints too few partition pairs for the last kill point to land
#: (at 2048 tuples the kill@2 child finishes and exits 0).
SPILL_MIN_TUPLES = 4096

#: Retries far beyond the policy budget: the spec keeps firing until the
#: ladder exhausts, which is the point of the exhaustion scenarios.
_EXHAUST_REPEAT = 99


def _kind_plan(algorithm: str, kind: str, repeat: int) -> FaultPlan:
    return FaultPlan((FaultSpec(kind=kind,
                                point=injection_point(algorithm, kind),
                                repeat=repeat, algorithm=algorithm),),
                     name=f"spill-{kind}")


def _spawn_killed_run(directory: Path, kill_after: int) -> int:
    """Run ``resume_run`` in a subprocess that SIGKILLs itself mid-join."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_root), env.get("PYTHONPATH", "")) if p)
    env[KILL_AFTER_ENV] = str(kill_after)
    code = ("import warnings; warnings.simplefilter('ignore');"
            "from repro.store import resume_run;"
            f"resume_run({str(directory)!r})")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=300)
    return proc.returncode


def _chaos_one_algorithm(checks: Checks, algorithm: str, workload: Dict,
                         join_input, budget: int, chunk_bytes: int,
                         seed: int, artifact_dir: Optional[Path]) -> None:
    from repro.api import make_join

    baseline = make_join(algorithm).run(join_input)

    # ---- clean spilled run: the budget must actually engage the store.
    with tempfile.TemporaryDirectory(prefix="repro-chaos-spill-") as d:
        with open_spill_session(d, budget_bytes=budget,
                                chunk_bytes=chunk_bytes) as session:
            result = make_join(algorithm).run(join_input)
        checks.record(f"{algorithm}/clean: partitions spilled",
                      session.spilled_partitions > 0,
                      f"{session.spilled_partitions} spilled under a "
                      f"{budget}-byte budget")
    expect_identical(checks, f"{algorithm}/clean", baseline, result)

    # ---- each disk fault kind from the seeded plan, one at a time.
    plan = seeded_spill_plan(seed, algorithms=(algorithm,))
    for spec in plan.specs:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-spill-") as d:
            with activate_plan(FaultPlan((spec,), name=plan.name)):
                with open_spill_session(d, budget_bytes=budget,
                                        chunk_bytes=chunk_bytes):
                    result = make_join(algorithm).run(join_input)
        expect_identical(checks, f"{algorithm}/{spec.kind}", baseline,
                         result, injected=True)

    # ---- write-ladder exhaustion: degrade to RAM under a soft budget...
    for kind in (TORN_WRITE, ENOSPC):
        with tempfile.TemporaryDirectory(prefix="repro-chaos-spill-") as d:
            with activate_plan(_kind_plan(algorithm, kind,
                                          repeat=_EXHAUST_REPEAT)):
                with open_spill_session(d, budget_bytes=budget,
                                        chunk_bytes=chunk_bytes):
                    result = make_join(algorithm).run(join_input)
        expect_identical(checks, f"{algorithm}/{kind}-exhausted", baseline,
                         result, injected=True)
        checks.record(f"{algorithm}/{kind}-exhausted: degraded to RAM",
                      result.meta.get("spill_degraded", 0) > 0,
                      f"meta {result.meta.get('spill_degraded')!r}")

    # ---- ...and a typed error when the budget is strict.
    def strict_run():
        with tempfile.TemporaryDirectory(prefix="repro-chaos-spill-") as d:
            with activate_plan(_kind_plan(algorithm, TORN_WRITE,
                                          repeat=_EXHAUST_REPEAT)):
                with open_spill_session(d, budget_bytes=budget,
                                        chunk_bytes=chunk_bytes,
                                        strict=True):
                    make_join(algorithm).run(join_input)

    expect_typed(checks, f"{algorithm}/torn-write-strict", strict_run)

    # ---- read-ladder exhaustion is terminal regardless of strictness.
    def rot_run():
        with tempfile.TemporaryDirectory(prefix="repro-chaos-spill-") as d:
            with activate_plan(_kind_plan(algorithm, CORRUPT_CHUNK,
                                          repeat=_EXHAUST_REPEAT)):
                with open_spill_session(d, budget_bytes=budget,
                                        chunk_bytes=chunk_bytes):
                    make_join(algorithm).run(join_input)

    expect_typed(checks, f"{algorithm}/corrupt-chunk-exhausted", rot_run)

    # ---- SIGKILL sweep: crash after the k-th fsynced checkpoint, resume.
    for kill_after in KILL_POINTS:
        d = Path(tempfile.mkdtemp(prefix="repro-chaos-kill-"))
        try:
            write_run_state(d, {
                "algorithm": algorithm, "backend": current_backend(),
                "budget_bytes": budget, "strict": False,
                "chunk_bytes": chunk_bytes, "codec": "raw",
                "workload": workload,
            })
            rc = _spawn_killed_run(d, kill_after)
            checks.record(
                f"{algorithm}/kill@{kill_after}: died by SIGKILL",
                rc == -signal.SIGKILL,
                f"subprocess exited {rc} (0 would mean the kill point "
                "was never reached)")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = resume_run(d)
            expect_identical(checks,
                             f"{algorithm}/kill@{kill_after}-resume",
                             baseline, result)
            checks.record(
                f"{algorithm}/kill@{kill_after}-resume: pairs skipped",
                result.meta.get("resumed_pairs", 0) >= kill_after,
                f"resumed_pairs {result.meta.get('resumed_pairs')!r}")

            if kill_after == KILL_POINTS[0]:
                # ---- on-disk rot across the crash: corrupt one chunk
                # behind the manifest's back; resume must revalidate,
                # drop it, and re-spill — never trust the bad bytes.
                chunk_files = sorted(d.glob(f"*{_CHUNK_SUFFIX}"))
                if checks.record(
                        f"{algorithm}/rot-resume: chunk file present",
                        bool(chunk_files),
                        f"no *{_CHUNK_SUFFIX} files in {d}"):
                    blob = bytearray(chunk_files[0].read_bytes())
                    blob[0] ^= 0xFF
                    chunk_files[0].write_bytes(bytes(blob))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        result = resume_run(d)
                    expect_identical(checks, f"{algorithm}/rot-resume",
                                     baseline, result)
                    checks.record(
                        f"{algorithm}/rot-resume: bad chunk dropped",
                        result.meta.get("spill_invalid_chunks", 0) >= 1,
                        f"meta {result.meta.get('spill_invalid_chunks')!r}")

                # ---- torn ledger tail: garbage after the fsynced lines
                # is discarded with a warning, never parsed as data.
                with open(d / LEDGER_NAME, "a", encoding="utf-8") as fh:
                    fh.write('{"crc": 0, "payload": {"type": "pair"')
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = resume_run(d)
                checks.record(
                    f"{algorithm}/torn-tail-resume: warned",
                    any(issubclass(w.category, RuntimeWarning)
                        for w in caught),
                    "no RuntimeWarning for the torn ledger line")
                expect_identical(checks, f"{algorithm}/torn-tail-resume",
                                 baseline, result)

            if artifact_dir is not None:
                dest = artifact_dir / f"{algorithm}-kill{kill_after}"
                dest.mkdir(parents=True, exist_ok=True)
                for name in (MANIFEST_NAME, LEDGER_NAME, RUN_STATE_NAME):
                    src = d / name
                    if src.exists():
                        shutil.copy2(src, dest / name)
        finally:
            shutil.rmtree(d, ignore_errors=True)


def spill_source(tuples: int = 8192, theta: float = 1.0, seed: int = 42,
                 algorithms: Sequence[str] = SPILL_ALGORITHM_NAMES,
                 artifact_dir: Optional[str] = None) -> Source:
    """The spill sweep over a seeded zipf workload; with ``artifact_dir``
    each kill point's manifest, ledger and run state are copied there.

    Refuses sizes below :data:`SPILL_MIN_TUPLES` and algorithms outside
    :data:`SPILL_ALGORITHM_NAMES` with a :class:`ConfigError`.
    """
    if tuples < SPILL_MIN_TUPLES:
        raise ConfigError(
            f"the spill chaos sweep needs --tuples >= {SPILL_MIN_TUPLES}, "
            f"got {tuples}: below it the kill points are never reached")
    unknown = sorted(set(algorithms) - set(SPILL_ALGORITHM_NAMES))
    if unknown or not algorithms:
        raise ConfigError(
            "the spill chaos sweep runs only "
            f"{', '.join(SPILL_ALGORITHM_NAMES)}; got "
            f"{', '.join(unknown) or 'no algorithm'}")

    def scenario(checks: Checks) -> Dict:
        # One recipe for the baseline and every killed-and-resumed run.
        workload = {"kind": "zipf", "n_r": tuples, "n_s": tuples,
                    "theta": theta, "seed": seed}
        join_input = ZipfWorkload(tuples, tuples, theta,
                                  seed=seed).generate()
        budget = max(12 * 2 * tuples // 4, 1)
        chunk_bytes = max(budget // 2, 4096)
        out_dir = Path(artifact_dir) if artifact_dir else None
        for algorithm in algorithms:
            _chaos_one_algorithm(checks, algorithm, workload, join_input,
                                 budget, chunk_bytes, seed, out_dir)
        return {"theta": theta, "algorithms": list(algorithms),
                "kill_points": list(KILL_POINTS),
                "disk_fault_kinds": list(DISK_FAULT_KINDS)}

    return Source("spill", seed, tuples, scenario)

"""Learned multiplicative corrections for the planner's cost predictions.

The analytic executors predict *simulated* seconds exactly, but the
planner ranks candidates by predicted *wall* seconds, and the wall/sim
ratio of each (algorithm, phase, backend) depends on the host.  The
:class:`CorrectionStore` closes that gap with one multiplicative factor
per (algorithm, phase, backend):

    predicted_wall = sim_seconds * base_backend_factor * correction

Unobserved factors are 1.0 (the backend's base prior alone); they are
refined with an EWMA (:func:`repro.exec.cost_model.blend_correction`) as
planned runs complete — either live via :meth:`CorrectionStore.observe`
or in bulk from the JSONL trace history every planned
:class:`~repro.exec.result.JoinResult` leaves behind.

Persistence is a small JSON file next to the traces (default
``plan_corrections.json``, overridable with ``REPRO_PLAN_CORRECTIONS``),
written atomically and loaded lazily on first use.  A missing or corrupt
file simply starts the store empty — corrections are an optimization,
never a correctness dependency.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.exec.cost_model import (
    DEFAULT_CORRECTION_ALPHA,
    blend_correction,
    clamp_correction,
)

#: Environment variable overriding the corrections file location.
CORRECTIONS_ENV = "REPRO_PLAN_CORRECTIONS"

#: Default file name, created next to wherever traces are being written.
DEFAULT_CORRECTIONS_FILENAME = "plan_corrections.json"

#: Schema version of the persisted corrections file.
CORRECTIONS_SCHEMA_VERSION = 1

#: A key is (algorithm, phase, backend).
CorrectionKey = Tuple[str, str, str]


def corrections_path_from_env() -> Optional[Path]:
    """The corrections file named by ``REPRO_PLAN_CORRECTIONS``, if set."""
    raw = os.environ.get(CORRECTIONS_ENV, "").strip()
    return Path(raw) if raw else None


class CorrectionStore:
    """Per-(algorithm, phase, backend) wall-time correction factors.

    ``path=None`` keeps the store purely in memory (the gate and tests
    use this); a path makes :meth:`save` persist and :meth:`load` lazy.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 alpha: float = DEFAULT_CORRECTION_ALPHA):
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        self._factors: Optional[Dict[CorrectionKey, Dict[str, float]]] = None

    # ------------------------------------------------------------------
    # lazy persistence

    def _ensure_loaded(self) -> Dict[CorrectionKey, Dict[str, float]]:
        if self._factors is None:
            self._factors = {}
            if self.path is not None and self.path.exists():
                self._load_file(self.path)
        return self._factors

    def _load_file(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            entries = data["entries"]
            if data.get("schema_version") != CORRECTIONS_SCHEMA_VERSION:
                return  # old schema: start fresh, the file is a cache
            for key, entry in entries.items():
                algorithm, phase, backend = key.split("|", 2)
                self._factors[(algorithm, phase, backend)] = {
                    "factor": clamp_correction(float(entry["factor"])),
                    "observations": int(entry.get("observations", 1)),
                }
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt corrections are a stale cache, not an error: the
            # planner falls back to the base factors and re-learns.
            self._factors = {}

    def save(self) -> Optional[Path]:
        """Atomically persist the factors; no-op for in-memory stores."""
        if self.path is None:
            return None
        factors = self._ensure_loaded()
        payload = {
            "schema_version": CORRECTIONS_SCHEMA_VERSION,
            "alpha": self.alpha,
            "entries": {
                "|".join(key): dict(entry)
                for key, entry in sorted(factors.items())
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, self.path)
        return self.path

    # ------------------------------------------------------------------
    # reads and updates

    def __len__(self) -> int:
        return len(self._ensure_loaded())

    def factor(self, algorithm: str, phase: str, backend: str) -> float:
        """The current correction for one key (1.0 when unobserved)."""
        entry = self._ensure_loaded().get((algorithm, phase, backend))
        return entry["factor"] if entry else 1.0

    def observations(self, algorithm: str, phase: str, backend: str) -> int:
        """How many observations shaped this key's factor."""
        entry = self._ensure_loaded().get((algorithm, phase, backend))
        return entry["observations"] if entry else 0

    def observe(self, algorithm: str, phase: str, backend: str,
                base_wall_seconds: float, realized_wall_seconds: float) -> float:
        """Fold one (base prediction, realized wall) pair into the factor.

        ``base_wall_seconds`` must be the *uncorrected* prediction —
        sim seconds times the backend base factor — so the learned factor
        stays an absolute wall/base ratio rather than drifting
        multiplicatively with its own feedback.
        """
        if base_wall_seconds <= 0 or realized_wall_seconds < 0:
            return self.factor(algorithm, phase, backend)
        factors = self._ensure_loaded()
        key = (algorithm, phase, backend)
        ratio = realized_wall_seconds / base_wall_seconds
        entry = factors.get(key)
        if entry is None:
            factors[key] = {"factor": clamp_correction(ratio),
                            "observations": 1}
        else:
            entry["factor"] = blend_correction(entry["factor"], ratio,
                                               alpha=self.alpha)
            entry["observations"] += 1
        return factors[key]["factor"]

    # ------------------------------------------------------------------
    # bulk learning

    def learn_from_results(self, results: Iterable) -> int:
        """Fold every planned result's realized walls in; returns count.

        Accepts any iterable of :class:`~repro.exec.result.JoinResult`
        (live or deserialized from a JSONL trace artifact); results
        without plan metadata are skipped.
        """
        observed = 0
        for result in results:
            plan = getattr(result, "meta", {}).get("plan")
            if not isinstance(plan, dict):
                continue
            algorithm = plan.get("algorithm")
            backend = plan.get("backend")
            phases = plan.get("phases")
            if not (algorithm and backend and isinstance(phases, list)):
                continue
            for phase in phases:
                if not isinstance(phase, dict):
                    continue
                name = phase.get("name")
                base = phase.get("base_wall_seconds")
                realized = phase.get("realized_wall_seconds")
                if name is None or base is None or realized is None:
                    continue
                self.observe(str(algorithm), str(name), str(backend),
                             float(base), float(realized))
                observed += 1
        return observed

    def learn_from_jsonl(self, path: Union[str, Path]) -> int:
        """Learn from a JSONL trace artifact (tolerant of torn tails)."""
        from repro.exec.serialize import results_from_jsonl_file
        return self.learn_from_results(
            results_from_jsonl_file(path, tolerant=True))

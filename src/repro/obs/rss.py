"""Peak resident-set-size sampling for machine-checked memory claims.

The out-of-core path promises that a run whose dataset exceeds
``REPRO_MEMORY_BUDGET`` keeps its resident footprint under the budget.
A promise like that is only worth something when it is measured, so
every pipeline stamps ``peak_rss_bytes`` into ``JoinResult.meta`` and
``tests/store/test_oocore_memory_bound.py`` checks both the interpreter
baseline and the run's high-water mark.

Measurement source matters here.  On Linux, ``getrusage``'s
``ru_maxrss`` is inherited across ``fork``/``exec`` — a child spawned
by a driver holding 150 MB starts life with a 150 MB "high-water mark"
it never touched, which would let any bound pass vacuously.
``/proc/self/status``'s ``VmHWM`` restarts with the exec'd image, so it
is what a fresh measurement child actually earned; it is preferred
whenever procfs is available, with ``ru_maxrss`` as the portable
fallback.  Either way the value is a process-lifetime high-water mark:
meaningful bounds are deltas against a baseline captured before the
workload opens (see ``tests/store/test_oocore_memory_bound.py``).
"""

from __future__ import annotations

import sys

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None


def _proc_status_kb(field: str) -> int:
    """One kB-denominated field of ``/proc/self/status`` (0 if absent)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_bytes() -> int:
    """The process's peak resident set size so far, in bytes.

    Prefers ``VmHWM`` (true per-exec high-water mark); falls back to
    ``ru_maxrss`` (kilobytes on Linux, bytes on macOS) where procfs is
    unavailable.  Returns 0 when neither source exists (the caller
    records an honest "unmeasured" rather than guessing).
    """
    hwm_kb = _proc_status_kb("VmHWM:")
    if hwm_kb:
        return hwm_kb * 1024
    if resource is None:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int:
    """The process's resident set size right now, in bytes (0 unknown).

    The oocore bench children capture this as their pre-workload
    baseline; the claim they record is ``peak - baseline <= budget``.
    """
    return _proc_status_kb("VmRSS:") * 1024


def reset_peak_rss() -> bool:
    """Reset ``VmHWM`` to the current RSS (Linux; True on success).

    Writing ``5`` to ``/proc/self/clear_refs`` makes a subsequent
    :func:`peak_rss_bytes` reflect only allocations after this point —
    the sharpest baseline a measurement child can set.  Best effort:
    sandboxes may deny the write, in which case the baseline-delta
    arithmetic still holds, just against the exec-time floor.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False

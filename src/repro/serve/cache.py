"""The hot build-side cache: LRU over built hash tables, single-flight.

The serving shape the paper's skew workloads induce — a few large,
heavy-hitter build relations probed over and over by many small requests
— makes the build phase the dominant repeated cost of a CLI-per-run
architecture.  :class:`BuildCache` amortizes it: built
:class:`~repro.cpu.chained_table.ChainedHashTable` instances are cached
under ``(relation_id, version)`` keys with LRU eviction (the same
bounded-recency pattern as the Zipf CDF table cache in
:mod:`repro.data.zipf`, but async-aware), and concurrent requests racing
on the same cold key share exactly one build via a per-key in-flight
future (single-flight).

Version discipline: re-registering a relation id bumps its version, so
stale cached builds are never *served* for a new version; the engine
drops the stale version's build with :meth:`invalidate` as it
registers the new one.

The cache also carries a per-key **circuit breaker**: after
``circuit_threshold`` *consecutive* cold-build failures the circuit
opens and further probes of the key shed immediately with a typed
:class:`~repro.errors.CircuitOpen` — no build attempted, no slot burned
— until ``circuit_reset_seconds`` have passed, at which point exactly
one trial request is admitted (half-open).  A successful trial closes
the circuit; a failed one re-opens it.  Deadline expiry and cooperative
cancellation do **not** count as build failures (they say nothing about
the build's health), and single-flight waiters whose leader abandoned
its build for such a reason simply retry — one of them becomes the next
leader — so a doomed leader never strands its waiters.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple

from repro.errors import (
    CircuitOpen,
    ConfigError,
    DeadlineExceeded,
    RequestCancelled,
)

#: Default bound on cached builds; each entry holds one built hash table.
DEFAULT_CACHE_ENTRIES = 8

#: Consecutive cold-build failures that open a key's circuit.
DEFAULT_CIRCUIT_THRESHOLD = 3

#: Seconds an open circuit waits before admitting a half-open trial.
DEFAULT_CIRCUIT_RESET_SECONDS = 30.0

#: Cache key: (relation_id, version).
CacheKey = Tuple[str, int]


@dataclass
class CachedBuild:
    """One cached build side: the table plus its provenance."""

    table: object
    relation_id: str
    version: int
    n_entries: int
    #: Simulated seconds the original build cost (what a warm hit saves).
    build_seconds: float = 0.0
    #: How many probes this entry has served since it was built.
    served: int = 0
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class _CircuitState:
    """Per-key breaker state; absent == closed with zero failures."""

    failures: int = 0
    opened_at: Optional[float] = None
    #: True while a half-open trial build is in flight.
    trial: bool = False

    def state_name(self, now: float, reset_seconds: float) -> str:
        if self.opened_at is None:
            return "closed"
        if self.trial or now - self.opened_at >= reset_seconds:
            return "half-open"
        return "open"


class BuildCache:
    """LRU-bounded, single-flight, circuit-breaking cache of builds."""

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES,
                 circuit_threshold: int = DEFAULT_CIRCUIT_THRESHOLD,
                 circuit_reset_seconds: float = DEFAULT_CIRCUIT_RESET_SECONDS,
                 clock: Callable[[], float] = time.monotonic):
        if max_entries <= 0:
            raise ConfigError(
                f"cache must allow at least one entry, got {max_entries}")
        if circuit_threshold <= 0:
            raise ConfigError(
                f"circuit_threshold must be positive, got {circuit_threshold}")
        if circuit_reset_seconds < 0:
            raise ConfigError(
                f"circuit_reset_seconds must be >= 0, got "
                f"{circuit_reset_seconds}")
        self.max_entries = int(max_entries)
        self.circuit_threshold = int(circuit_threshold)
        self.circuit_reset_seconds = float(circuit_reset_seconds)
        self._clock = clock
        self._entries: "OrderedDict[CacheKey, CachedBuild]" = OrderedDict()
        self._building: Dict[CacheKey, "asyncio.Future[CachedBuild]"] = {}
        self._circuit: Dict[CacheKey, _CircuitState] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.builds = 0
        #: Requests that piggybacked on another request's in-flight build.
        self.build_waits = 0
        self.invalidations = 0
        self.circuit_opens = 0
        self.circuit_closes = 0
        #: Requests shed fast because a key's circuit was open.
        self.circuit_shed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: CacheKey) -> Optional[CachedBuild]:
        """The cached entry without touching recency or counters."""
        return self._entries.get(key)

    def keys(self) -> Tuple[CacheKey, ...]:
        """Cached keys, least-recently-used first."""
        return tuple(self._entries)

    # ------------------------------------------------------------------
    # circuit breaker

    def _circuit_precheck(self, key: CacheKey) -> None:
        """Shed fast (typed) when the key's circuit is open.

        In the half-open window exactly one caller passes as the trial
        leader; everyone else keeps shedding until the trial resolves.
        """
        state = self._circuit.get(key)
        if state is None or state.opened_at is None:
            return
        elapsed = self._clock() - state.opened_at
        if elapsed >= self.circuit_reset_seconds and not state.trial:
            state.trial = True  # this caller runs the half-open trial
            return
        retry_in = max(0.0, self.circuit_reset_seconds - elapsed)
        self.circuit_shed += 1
        raise CircuitOpen(
            f"build circuit open for {key[0]!r} v{key[1]} after "
            f"{state.failures} consecutive failure(s)",
            relation_id=key[0], version=key[1],
            failures=state.failures,
            retry_in_seconds=round(retry_in, 3))

    def _circuit_failure(self, key: CacheKey) -> None:
        state = self._circuit.setdefault(key, _CircuitState())
        state.failures += 1
        was_open = state.opened_at is not None
        if state.trial or (not was_open
                           and state.failures >= self.circuit_threshold):
            # Threshold reached, or a half-open trial failed: (re)open.
            state.opened_at = self._clock()
            state.trial = False
            self.circuit_opens += 1

    def _circuit_success(self, key: CacheKey) -> None:
        state = self._circuit.pop(key, None)
        if state is not None and state.opened_at is not None:
            self.circuit_closes += 1

    def circuits(self) -> Dict[str, Dict[str, object]]:
        """Breaker snapshot keyed ``relation@version`` (health verb)."""
        now = self._clock()
        out: Dict[str, Dict[str, object]] = {}
        for key, state in self._circuit.items():
            out[f"{key[0]}@{key[1]}"] = {
                "state": state.state_name(now, self.circuit_reset_seconds),
                "failures": state.failures,
                "retry_in_seconds": (
                    round(max(0.0, self.circuit_reset_seconds
                              - (now - state.opened_at)), 3)
                    if state.opened_at is not None else 0.0),
            }
        return out

    def open_circuits(self) -> int:
        """How many keys are currently open or half-open."""
        return sum(1 for state in self._circuit.values()
                   if state.opened_at is not None)

    # ------------------------------------------------------------------

    async def get_or_build(
        self,
        key: CacheKey,
        builder: Callable[[], "CachedBuild | Awaitable[CachedBuild]"],
    ) -> Tuple[CachedBuild, bool, bool]:
        """Return ``(entry, cache_hit, build_shared)`` for one key.

        * warm hit — the entry exists: recency refreshed, hit counted.
        * cold build — this caller runs ``builder`` (sync or async); the
          in-flight future is installed *before* the first await, so any
          concurrent request on the same key finds it and waits instead
          of building again.  An open circuit sheds the request with a
          typed :class:`~repro.errors.CircuitOpen` before any work.
        * shared build — another request's build was in flight: await it.
          Counted as a miss (the build phase still ran for this answer),
          with ``build_shared`` True.

        A failed build propagates its exception to every waiter and
        leaves the key uncached — unless the leader merely hit *its own*
        deadline or cancellation, in which case waiters loop and one of
        them becomes the new leader (never stranded, never wrongly
        cancelled by someone else's budget).
        """
        while True:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry, True, False
            inflight = self._building.get(key)
            if inflight is not None:
                self.misses += 1
                self.build_waits += 1
                try:
                    entry = await asyncio.shield(inflight)
                except (DeadlineExceeded, RequestCancelled):
                    # The leader's own budget died, not the build: retry
                    # (this waiter may become the next leader).
                    continue
                except asyncio.CancelledError:
                    if inflight.done() and (inflight.cancelled()
                                            or inflight.exception()
                                            is not None):
                        continue  # leader abandoned; retry
                    raise  # the waiter itself was cancelled
                return entry, False, True
            self._circuit_precheck(key)
            self.misses += 1
            break
        future: "asyncio.Future[CachedBuild]" = (
            asyncio.get_running_loop().create_future())
        self._building[key] = future
        try:
            # Yield once so overlapping cold requests can observe the
            # in-flight future before the (synchronous) build starts.
            await asyncio.sleep(0)
            entry = builder()
            if asyncio.iscoroutine(entry):
                entry = await entry
        except (DeadlineExceeded, RequestCancelled,
                asyncio.CancelledError) as exc:
            # The leader's budget/cancellation, not a build defect: no
            # circuit penalty; waiters observe it and re-elect a leader.
            future.set_exception(exc)
            future.exception()  # mark retrieved; waiters re-raise a copy
            raise
        except BaseException as exc:
            self._circuit_failure(key)
            future.set_exception(exc)
            future.exception()  # mark retrieved; waiters re-raise their copy
            raise
        else:
            self.builds += 1
            self._circuit_success(key)
            future.set_result(entry)
            self._insert(key, entry)
            return entry, False, False
        finally:
            del self._building[key]

    def _insert(self, key: CacheKey, entry: CachedBuild) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, relation_id: str,
                   version: Optional[int] = None) -> int:
        """Drop cached builds of one relation (one version, or all).

        Returns the number of entries dropped.  In-flight builds are not
        cancelled — their requesters still get their answer, and the
        completed entry lands in the cache afterwards subject to normal
        LRU; callers that must not serve it again (the engine, after a
        version bump) invalidate the specific stale version.  Circuit
        state for the dropped key(s) is cleared too: new data deserves a
        fresh verdict.
        """
        dropped = [key for key in self._entries
                   if key[0] == relation_id
                   and (version is None or key[1] == version)]
        for key in dropped:
            del self._entries[key]
        for key in [k for k in self._circuit
                    if k[0] == relation_id
                    and (version is None or k[1] == version)]:
            del self._circuit[key]
        if dropped:
            self.invalidations += len(dropped)
        return len(dropped)

    def info(self) -> Dict[str, int]:
        """Counter snapshot (stats op, tests, the smoke harness)."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_waits": self.build_waits,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "circuit_opens": self.circuit_opens,
            "circuit_closes": self.circuit_closes,
            "circuit_shed": self.circuit_shed,
            "open_circuits": self.open_circuits(),
        }

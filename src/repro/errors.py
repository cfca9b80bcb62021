"""Exception hierarchy for the repro library.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Errors carry
optional structured context (``partition=3, capacity=4096, observed=9000``)
alongside the message: the keyword arguments land in ``exc.context`` and are
appended to ``str(exc)``, which gives recovery code and failure reports
machine-readable fields instead of string parsing.
"""

from __future__ import annotations

from typing import Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``**context`` attaches structured fields to the error; they are kept in
    :attr:`context` and rendered after the message.
    """

    def __init__(self, message: str = "", **context):
        super().__init__(message)
        self.message = message
        self.context: Dict[str, object] = context

    def __str__(self) -> str:
        if not self.context:
            return self.message
        fields = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.context.items())
        )
        return f"{self.message} [{fields}]"


class ConfigError(ReproError):
    """An algorithm or device configuration is invalid."""


class WorkloadError(ReproError):
    """A workload specification is invalid (bad sizes, probabilities, ...)."""


class ExecutionError(ReproError):
    """An executor reached an inconsistent internal state."""


class VerificationError(ReproError):
    """A join result failed verification against the expected output."""


class CapacityError(ReproError):
    """A fixed-capacity structure (hash table, buffer) cannot hold its input."""


class WorkerCrashError(ExecutionError):
    """A simulated worker thread died mid-task (fault injection)."""


class ArtifactCorruptionError(ReproError):
    """A serialized artifact is truncated or otherwise corrupted.

    Like :class:`UnrecoveredFaultError`, carries the episode's
    :class:`~repro.faults.report.FailureReport` in :attr:`report` when the
    corruption came from the injection plane.
    """

    def __init__(self, message: str = "", report: Optional[object] = None,
                 **context):
        super().__init__(message, **context)
        self.report = report


class ServeError(ReproError):
    """A join-service request cannot be satisfied (unknown relation,
    unknown version, malformed request body)."""


class AdmissionError(ServeError):
    """The join service refused a request under admission control.

    Raised when the server is saturated (in-flight and queue limits both
    reached) or when a request's probe side exceeds its morsel budget.
    The structured context carries the limits that were hit, so clients
    can back off or shrink the request instead of parsing prose.
    """


class ProtocolError(ServeError):
    """A serve-protocol message is malformed (bad JSON, missing fields,
    or an unsupported protocol version)."""


class DeadlineExceeded(ServeError):
    """A request's ``deadline_ms`` budget ran out mid-flight.

    Raised cooperatively at morsel/kernel checkpoints, never by killing
    the task: the structured context carries the partial progress at the
    moment the budget expired (``morsels_completed``, ``elapsed_ms``,
    ``deadline_ms``, partial ``count``/``checksum``) so clients can
    decide whether to retry with a larger budget.
    """


class RequestCancelled(ServeError):
    """A request was cancelled cooperatively before it finished.

    The cancellation reason (client disconnect, server drain) is in the
    structured context; like :class:`DeadlineExceeded`, the error fires
    at the next checkpoint rather than by interrupting compute.
    """


class CircuitOpen(ServeError):
    """The build circuit for a ``(relation_id, version)`` key is open.

    After N consecutive cold-build failures the cache stops attempting
    the build and sheds requests for the key immediately with this
    error; after the decay window one trial request is admitted
    (half-open) and a success closes the circuit again.  The context
    carries the key, the consecutive failure count, and the seconds
    until the next half-open trial.
    """


class SpillError(ReproError):
    """The out-of-core spill plane failed durably.

    Raised when the chunk store exhausts its recovery ladder (retry →
    re-spill to a fresh chunk → degrade to in-RAM) on a write, or when a
    spilled chunk fails checksum validation on every read attempt.  Like
    :class:`UnrecoveredFaultError`, carries the episode's
    :class:`~repro.faults.report.FailureReport` in :attr:`report` so the
    chaos harness and resume driver never parse messages.
    """

    def __init__(self, message: str = "", report: Optional[object] = None,
                 **context):
        super().__init__(message, **context)
        self.report = report


class UnrecoveredFaultError(ReproError):
    """A fault exhausted its recovery budget.

    Carries the :class:`~repro.faults.report.FailureReport` describing the
    fault episode in :attr:`report`, so callers (fallback ladders, the chaos
    harness) never have to parse the message.
    """

    def __init__(self, message: str = "", report: Optional[object] = None,
                 **context):
        super().__init__(message, **context)
        self.report = report

"""CSH: the CPU Skew-conscious Hash join (the paper's Section IV-A).

Pipeline: (1) detect skewed keys by sampling R; (2) partition R, diverting
skewed tuples into per-key skewed partitions; (3) partition S, joining
skewed S tuples against the skewed partitions on the fly (hybrid-hash-join
style); (4) NM-join the remaining normal partition pairs exactly like
Cbase's join phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.csh.detector import SkewDetection, detect_skewed_keys
from repro.core.csh.checkup import SkewCheckupTable
from repro.core.csh.hybrid_partition import partition_r_hybrid, partition_s_hybrid
from repro.cpu.spacesaving import streaming_skew_detection
from repro.exec.counters import OpCounters
from repro.cpu.join_phase import join_partition_pairs
from repro.cpu.partition import choose_radix_bits
from repro.cpu.threads import ThreadPool
from repro.data.relation import JoinInput
from repro.errors import CapacityError, ConfigError, UnrecoveredFaultError
from repro.exec.cost_model import CPUCostModel, DEFAULT_CPU_COST_MODEL
from repro.exec.output import DEFAULT_CAPACITY
from repro.exec.result import JoinResult
from repro.faults.plan import CAPACITY_OVERFLOW
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import current_fault_scope
from repro.obs.trace import join_run
from repro.store.spill import current_spill_session
from repro.types import SeedLike


@dataclass(frozen=True)
class CSHConfig:
    """Tuning knobs for CSH (paper defaults: 1% sample, threshold 2)."""

    n_threads: int = 20
    sample_rate: float = 0.01
    freq_threshold: int = 2
    #: Skew detection strategy: "sample" (the paper's) or "spacesaving"
    #: (extension: one-pass Misra-Gries summary with guaranteed recall).
    detector: str = "sample"
    #: Minimum key frequency treated as skewed by the streaming detector.
    min_skew_frequency: float = 1e-4
    target_partition_tuples: int = 2048
    bits_pass1: Optional[int] = None
    bits_pass2: Optional[int] = None
    output_capacity: int = DEFAULT_CAPACITY
    cost_model: CPUCostModel = DEFAULT_CPU_COST_MODEL
    sample_seed: SeedLike = 0

    def __post_init__(self):
        if self.n_threads <= 0:
            raise ConfigError("n_threads must be positive")
        if not 0 < self.sample_rate <= 1:
            raise ConfigError("sample_rate must be in (0, 1]")
        if self.freq_threshold < 1:
            raise ConfigError("freq_threshold must be >= 1")
        if self.detector not in ("sample", "spacesaving"):
            raise ConfigError(
                f"unknown detector {self.detector!r}; use 'sample' or "
                "'spacesaving'")
        if not 0 < self.min_skew_frequency < 1:
            raise ConfigError("min_skew_frequency must be in (0, 1)")

    def resolve_bits(self, n_tuples: int) -> Tuple[int, int]:
        """Radix bit widths for the two partition passes."""
        if self.bits_pass1 is not None:
            return self.bits_pass1, self.bits_pass2 or 0
        return choose_radix_bits(n_tuples, self.target_partition_tuples)


class CSHJoin:
    """The CSH pipeline."""

    name = "csh"

    def __init__(self, config: CSHConfig = CSHConfig()):
        self.config = config
        self.pool = ThreadPool(config.n_threads, config.cost_model)

    def run(self, join_input: JoinInput) -> JoinResult:
        """Execute CSH: sample, hybrid partition, NM-join."""
        cfg = self.config
        r, s = join_input.r, join_input.s
        bits1, bits2 = cfg.resolve_bits(max(len(r), len(s)))
        with join_run(self.name, join_input,
                      meta={"bits_pass1": bits1, "bits_pass2": bits2}
                      ) as (result, tracer, _):
            metrics = tracer.metrics
            with tracer.span("sample", algo=self.name,
                             detector=cfg.detector) as span:
                detection, detect_overhead = self._detect(r.keys)
                # Detection parallelizes across the pool like every other
                # phase.
                span.finish(
                    simulated_seconds=(
                        cfg.cost_model.seconds(detection.counters)
                        / cfg.n_threads
                        + detect_overhead
                    ),
                    counters=detection.counters,
                    skewed_keys=float(detection.n_skewed),
                    sample_size=float(detection.sample_size),
                )
            result.meta["skewed_keys"] = detection.n_skewed
            metrics.counter("skew.keys_detected").inc(detection.n_skewed)
            metrics.counter("skew.tuples_sampled").inc(detection.sample_size)

            with tracer.span("partition", algo=self.name) as span:
                part_r = partition_r_hybrid(r, detection.checkup, bits1,
                                            bits2, self.pool)
                part_s = partition_s_hybrid(
                    s, detection.checkup, part_r.skewed, bits1, bits2,
                    self.pool, cfg.output_capacity,
                )
                span.finish(
                    simulated_seconds=(part_r.simulated_seconds
                                       + part_s.simulated_seconds),
                    counters=part_r.counters + part_s.counters,
                    skewed_r_tuples=float(part_r.n_skewed_tuples),
                    skewed_s_tuples=float(part_s.n_skewed_tuples),
                    skewed_output=float(part_s.summary.count),
                )
            result.meta["skewed_r_tuples"] = part_r.n_skewed_tuples
            result.meta["skewed_s_tuples"] = part_s.n_skewed_tuples
            result.meta["skewed_output"] = part_s.summary.count
            metrics.counter("skew.tuples_diverted").inc(
                part_r.n_skewed_tuples + part_s.n_skewed_tuples
            )
            metrics.histogram("partition.sizes").observe_many(
                part_r.normal.sizes()
            )

            # Out-of-core gate on the NM-join inputs (the skewed side is
            # joined on the fly during partitioning and never spills).
            # Zero simulated seconds, and the span is no phase, so the
            # spilled run keeps the in-RAM phase structure exactly.
            norm_r, norm_s = part_r.normal, part_s.normal
            spill = current_spill_session()
            if spill is not None:
                with tracer.span("spill", algo=self.name,
                                 phase=False) as span:
                    norm_r, norm_s = spill.spill_pair(norm_r, norm_s,
                                                      label="nm-join")
                    span.finish(
                        simulated_seconds=0.0,
                        spilled_partitions=spill.spilled_partitions,
                    )

            with tracer.span("nm-join", algo=self.name) as span:
                phase = join_partition_pairs(
                    norm_r, norm_s, self.pool,
                    output_capacity=cfg.output_capacity,
                )
                span.finish(
                    simulated_seconds=phase.simulated_seconds,
                    counters=phase.counters,
                    task_count=phase.task_count,
                    idle_fraction=phase.schedule.idle_fraction,
                )
            metrics.gauge("taskqueue.join_idle_fraction").set(
                phase.schedule.idle_fraction
            )

            result.output_count = part_s.summary.count + phase.summary.count
            result.output_checksum = (
                part_s.summary.checksum + phase.summary.checksum
            ) & ((1 << 64) - 1)
            if spill is not None:
                spill.annotate(result)
        return result

    def _detect(self, r_keys):
        """Run the configured skew detector, regrowing on overflow.

        The sampling detector's frequency counter is a fixed-capacity
        structure; on a (injected or organic) :class:`CapacityError` the
        detection retries with the table grown by the policy's regrow
        factor.  Returns ``(detection, overhead_seconds)`` where the
        overhead prices the wasted detection attempts plus backoff.
        """
        cfg = self.config
        scope = current_fault_scope()
        policy = scope.policy
        retries = 0
        backoff_total = 0.0
        capacity = None
        injected = False
        last_error = ""
        while True:
            error = None
            spec = scope.fire("detect")
            if spec is not None:
                injected = True
                error = CapacityError(
                    "injected skew-detector overflow",
                    detector=cfg.detector, capacity=capacity or 0,
                )
            else:
                try:
                    detection = self._detect_once(r_keys, capacity)
                except CapacityError as exc:
                    error = exc
            if error is None:
                break
            retries += 1
            last_error = str(error)
            backoff_total += policy.backoff_seconds(retries)
            if retries > policy.max_retries:
                report = scope.record(FailureReport(
                    kind=CAPACITY_OVERFLOW, point="detect",
                    algorithm=scope.algorithm, phase=current_phase_name(),
                    action="abort", recovered=False, injected=injected,
                    retries=retries, backoff_seconds=backoff_total,
                    error=last_error,
                    context=dict(getattr(error, "context", {})),
                ))
                raise UnrecoveredFaultError(last_error, report=report)
            base = capacity if capacity is not None else max(
                4 * max(int(round(r_keys.size * cfg.sample_rate)), 1), 16)
            capacity = base * policy.regrow_factor
        overhead = 0.0
        if retries:
            per_attempt = (cfg.cost_model.seconds(detection.counters)
                           / cfg.n_threads)
            overhead = (retries * policy.crash_cost_fraction * per_attempt
                        + backoff_total)
            scope.record(FailureReport(
                kind=CAPACITY_OVERFLOW, point="detect",
                algorithm=scope.algorithm, phase=current_phase_name(),
                action="regrow", recovered=True, injected=injected,
                retries=retries, backoff_seconds=backoff_total,
                error=last_error,
                context={"capacity": capacity or 0,
                         "detector": cfg.detector},
            ))
        return detection, overhead

    def _detect_once(self, r_keys, capacity=None) -> SkewDetection:
        """One detection attempt with an optional counter-capacity override."""
        cfg = self.config
        if cfg.detector == "sample":
            return detect_skewed_keys(
                r_keys,
                sample_rate=cfg.sample_rate,
                freq_threshold=cfg.freq_threshold,
                seed=cfg.sample_seed,
                capacity=capacity,
            )
        counters = OpCounters()
        skewed = streaming_skew_detection(
            r_keys, min_frequency=cfg.min_skew_frequency, counters=counters)
        return SkewDetection(
            checkup=SkewCheckupTable(skewed),
            sample_size=int(len(r_keys)),
            counters=counters,
        )

"""GSH: the GPU Skew-conscious Hash join (the paper's Section IV-B).

Pipeline: (1) partition R and S with the simple count-then-scatter, two
passes; (2) detect skewed keys by sampling *large* partitions (top-k per
partition, k = 3); (3) split large partitions into per-key skewed arrays
plus a normal partition; (4) NM-join the normal partition pairs, one thread
block each; (5) join the skewed arrays with multiple thread blocks per
skewed key.

Unlike CSH, detection runs *after* partitioning: a skew check inside the
partitioning kernel would diverge the warps, and the GPU's bandwidth makes
the extra copy of S tuples cheap (Section IV-B's design discussion).

Fault degradation follows a two-rung ladder.  A skew-split failure
(injected or organic capacity overflow in detect/split) degrades to
Gbase's sub-list decomposition over the *already partitioned* data — the
partition phase's work is reused, only the skew machinery is abandoned.
A kernel that exhausts its retries degrades all the way to the CPU
no-partition join.  Both degradations preserve the exact join output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.gsh.detector import detect_partition_skew
from repro.core.gsh.skew_join import skew_join_phase
from repro.core.gsh.split import split_large_partitions
from repro.data.relation import JoinInput
from repro.errors import CapacityError, ConfigError, UnrecoveredFaultError
from repro.exec.output import DEFAULT_CAPACITY
from repro.exec.result import JoinResult
from repro.faults.plan import CAPACITY_OVERFLOW
from repro.faults.report import FailureReport, current_phase_name
from repro.faults.scope import current_fault_scope
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.gbase.join_kernels import gbase_join_phase
from repro.gpu.gbase.pipeline import run_cpu_fallback
from repro.gpu.kernel import BlockWork
from repro.gpu.partitioning import choose_gpu_bits, gsh_partition
from repro.gpu.simulator import GPUSimulator, cost_model_for
from repro.obs.trace import join_run
from repro.types import SeedLike


@dataclass(frozen=True)
class GSHConfig:
    """Tuning knobs for GSH (paper defaults: 1% sample, top-3)."""

    device: DeviceSpec = A100
    sample_rate: float = 0.01
    top_k: int = 3
    #: Extension: choose k per partition so the remainder fits shared
    #: memory (the paper's stated selection rule), with ``top_k`` as the
    #: floor and ``max_k`` as the cap.
    adaptive_k: bool = False
    max_k: int = 64
    #: A partition is "large" above this multiple of the shared-memory
    #: hash-table capacity.
    large_partition_factor: float = 1.0
    bits_pass1: Optional[int] = None
    bits_pass2: Optional[int] = None
    output_capacity: int = DEFAULT_CAPACITY
    sample_seed: SeedLike = 0

    def __post_init__(self):
        if not 0 < self.sample_rate <= 1:
            raise ConfigError("sample_rate must be in (0, 1]")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.large_partition_factor <= 0:
            raise ConfigError("large_partition_factor must be positive")
        if self.adaptive_k and self.max_k < self.top_k:
            raise ConfigError("max_k must be >= top_k")

    def large_threshold_tuples(self) -> int:
        """Partition size above which a partition counts as large."""
        return max(int(self.large_partition_factor
                       * self.device.shared_capacity_tuples), 1)

    def resolve_bits(self, n_tuples: int) -> Tuple[int, int]:
        """Radix bit widths for the two partition passes."""
        if self.bits_pass1 is not None:
            return self.bits_pass1, self.bits_pass2 or 0
        return choose_gpu_bits(n_tuples, self.device.shared_capacity_tuples)


class GSHJoin:
    """The GSH pipeline on the SIMT cost simulator."""

    name = "gsh"

    def __init__(self, config: GSHConfig = GSHConfig()):
        self.config = config

    def run(self, join_input: JoinInput) -> JoinResult:
        """Execute GSH: partition, detect, split, NM-join, skew join."""
        cfg = self.config
        r, s = join_input.r, join_input.s
        sim = GPUSimulator(device=cfg.device,
                           cost_model=cost_model_for(cfg.device))
        bits1, bits2 = cfg.resolve_bits(max(len(r), len(s)))
        with join_run(self.name, join_input,
                      meta={"bits_pass1": bits1, "bits_pass2": bits2,
                            "device": cfg.device.name},
                      device=cfg.device.name) as (result, tracer, faults):
            metrics = tracer.metrics
            try:
                with tracer.span("partition", algo=self.name) as span:
                    part_r = gsh_partition(r.keys, r.payloads, bits1, bits2,
                                           sim, "r")
                    part_s = gsh_partition(s.keys, s.payloads, bits1, bits2,
                                           sim, "s")
                    span.finish(
                        simulated_seconds=part_r.seconds + part_s.seconds,
                        counters=part_r.counters + part_s.counters,
                    )
                metrics.histogram("partition.sizes").observe_many(
                    part_r.partitioned.sizes()
                )

                try:
                    split = self._detect_and_split(result, tracer, sim,
                                                   part_r, part_s)
                except CapacityError as exc:
                    # Skew-split failure: degrade to Gbase's sub-list
                    # decomposition over the already-partitioned data (the
                    # partition phase is reused; only the skew machinery is
                    # abandoned).  Output is unchanged — decomposition only
                    # affects cost.
                    if not faults.policy.gsh_sublist_fallback:
                        raise
                    split = None
                    faults.record(FailureReport(
                        kind=CAPACITY_OVERFLOW, point="split",
                        algorithm=self.name, phase=current_phase_name(),
                        action="fallback:gbase-sublist", recovered=True,
                        injected=bool(getattr(exc, "context", {})
                                      .get("injected", False)),
                        error=str(exc),
                        context=dict(getattr(exc, "context", {})),
                    ))
                    result.meta["degraded"] = "gbase-sublist"

                if split is not None:
                    join_r, join_s = split.normal_r, split.normal_s
                    sublist_capacity = None
                else:
                    join_r, join_s = part_r.partitioned, part_s.partitioned
                    sublist_capacity = cfg.device.shared_capacity_tuples

                with tracer.span("nm-join", algo=self.name,
                                 degraded=float(split is None)) as span:
                    nm = gbase_join_phase(
                        join_r, join_s, sim,
                        sublist_capacity=sublist_capacity,
                        output_capacity=cfg.output_capacity,
                        kernel_name="gsh_nm_join",
                    )
                    span.finish(
                        simulated_seconds=nm.seconds,
                        counters=nm.counters,
                        task_count=nm.n_blocks,
                    )

                if split is not None:
                    with tracer.span("skew-join", algo=self.name) as span:
                        skew = skew_join_phase(
                            split.skewed_r, split.skewed_s, sim,
                            output_capacity=cfg.output_capacity,
                        )
                        span.finish(
                            simulated_seconds=skew.seconds,
                            counters=skew.counters,
                            task_count=skew.n_blocks,
                        )
                    result.meta["skew_join_blocks"] = skew.n_blocks
                    result.meta["skewed_output"] = skew.summary.count
                    skew_count = skew.summary.count
                    skew_checksum = skew.summary.checksum
                else:
                    skew_count = 0
                    skew_checksum = 0

                result.output_count = nm.summary.count + skew_count
                result.output_checksum = (
                    nm.summary.checksum + skew_checksum
                ) & ((1 << 64) - 1)
            except UnrecoveredFaultError as exc:
                run_cpu_fallback(result, tracer, faults, exc, join_input,
                                 cfg.output_capacity)
        return result

    def _detect_and_split(self, result, tracer, sim, part_r, part_s):
        """The skew machinery: detect large partitions, split skewed keys.

        An injected ``split`` fault (or an organic overflow in either
        phase) raises :class:`CapacityError`, which the caller degrades to
        Gbase sub-list decomposition.
        """
        cfg = self.config
        faults = current_fault_scope()
        with tracer.span("detect", algo=self.name) as span:
            detection = detect_partition_skew(
                part_r.partitioned, part_s.partitioned,
                threshold_tuples=cfg.large_threshold_tuples(),
                sample_rate=cfg.sample_rate,
                top_k=cfg.top_k,
                seed=cfg.sample_seed,
                adaptive_k=cfg.adaptive_k,
                max_k=cfg.max_k,
            )
            launch = sim.launch("gsh_detect", [
                BlockWork(1, c) for c in detection.block_counters
            ])
            span.finish(
                simulated_seconds=launch.seconds,
                counters=launch.counters,
                large_partitions=float(detection.n_large),
            )
        result.meta["large_partitions"] = detection.n_large
        tracer.metrics.counter("skew.large_partitions").inc(detection.n_large)

        with tracer.span("split", algo=self.name) as span:
            spec = faults.fire("split")
            if spec is not None:
                raise CapacityError(
                    "injected skew-split overflow", injected=True,
                    threshold=cfg.large_threshold_tuples(),
                    large_partitions=detection.n_large,
                )
            split = split_large_partitions(
                part_r.partitioned, part_s.partitioned, detection,
                cfg.top_k
            )
            launch = sim.launch("gsh_split", split.block_work)
            span.finish(
                simulated_seconds=launch.seconds,
                counters=launch.counters,
                skewed_keys=float(len(split.skewed_r.keys())),
            )
        skewed_keys = sorted(
            set(split.skewed_r.keys()) | set(split.skewed_s.keys())
        )
        result.meta["skewed_keys"] = skewed_keys
        tracer.metrics.counter("skew.keys_detected").inc(len(skewed_keys))
        return split

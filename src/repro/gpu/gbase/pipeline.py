"""Gbase: the baseline GPU hash join, run on the SIMT cost simulator.

From-scratch implementation of the GPU join the paper baselines against
([24], Sioulas et al., as described in Sections II-B and III): two-pass
bucket-chaining partitioning into shared-memory-sized partitions, then one
thread block per partition pair with a shared-memory chained hash table,
write-bitmap output coordination, and sub-list decomposition of large R
partitions as the skew-handling technique.

When a kernel exhausts its retry budget the pipeline degrades to the CPU
no-partition join (the bottom of the fallback ladder): phases already
priced are kept, the fallback run is traced as one ``fallback`` span, and
the output comes from the CPU run — identical by construction, since both
joins are functionally exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.no_partition_join import NoPartitionConfig, NoPartitionJoin
from repro.data.relation import JoinInput
from repro.errors import ConfigError, UnrecoveredFaultError
from repro.exec.output import DEFAULT_CAPACITY
from repro.exec.result import JoinResult
from repro.faults.plan import KERNEL_ABORT
from repro.faults.report import FailureReport
from repro.faults.scope import FaultScope
from repro.obs.trace import Tracer, join_run
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.gbase.join_kernels import gbase_join_phase
from repro.gpu.partitioning import choose_gpu_bits, gbase_partition
from repro.gpu.simulator import GPUSimulator, cost_model_for


def run_cpu_fallback(
    result: JoinResult,
    tracer: Tracer,
    faults: FaultScope,
    exc: UnrecoveredFaultError,
    join_input: JoinInput,
    output_capacity: int,
) -> None:
    """Degrade a GPU pipeline to cbase-npj after an unrecovered fault.

    Records the fallback as a recovered report, then runs the CPU
    no-partition join inside one ``fallback`` span (the inner join
    activates its own tracer and fault scope, so its spans and reports
    stay out of the GPU result).  The aborted run's priced root spans
    stay phases, marked ``aborted`` by the tracer.  Raises the original
    error unchanged when the policy forbids falling back.
    """
    if not faults.policy.gpu_cpu_fallback:
        raise exc
    report = exc.report
    faults.record(FailureReport(
        kind=report.kind if report else KERNEL_ABORT,
        point=report.point if report else "kernel",
        algorithm=faults.algorithm, phase=report.phase if report else "",
        action="fallback:cbase-npj", recovered=True,
        injected=report.injected if report else True,
        retries=report.retries if report else 0,
        error=str(exc), context=dict(report.context) if report else {},
    ))
    with tracer.span("fallback", algo=faults.algorithm,
                     target="cbase-npj") as span:
        fallback = NoPartitionJoin(
            NoPartitionConfig(output_capacity=output_capacity)
        ).run(join_input)
        span.finish(
            simulated_seconds=fallback.simulated_seconds,
            counters=fallback.counters,
        )
    result.output_count = fallback.output_count
    result.output_checksum = fallback.output_checksum
    result.meta["fallback"] = "cbase-npj"


@dataclass(frozen=True)
class GbaseConfig:
    """Tuning knobs for the Gbase GPU join."""

    device: DeviceSpec = A100
    #: Max R tuples per join block; larger partitions get sub-lists.
    #: ``None`` defaults to the device's shared-memory table capacity.
    sublist_capacity: Optional[int] = None
    bits_pass1: Optional[int] = None
    bits_pass2: Optional[int] = None
    output_capacity: int = DEFAULT_CAPACITY

    def resolve_sublist_capacity(self) -> int:
        """Max R tuples per join block."""
        cap = self.sublist_capacity
        if cap is None:
            cap = self.device.shared_capacity_tuples
        if cap <= 0:
            raise ConfigError("sublist capacity must be positive")
        return cap

    def resolve_bits(self, n_tuples: int) -> Tuple[int, int]:
        """Radix bit widths for the partition passes."""
        if self.bits_pass1 is not None:
            return self.bits_pass1, self.bits_pass2 or 0
        return choose_gpu_bits(n_tuples, self.device.shared_capacity_tuples)


class GbaseJoin:
    """The Gbase pipeline: partition then join, on the GPU simulator."""

    name = "gbase"

    def __init__(self, config: GbaseConfig = GbaseConfig()):
        self.config = config

    def run(self, join_input: JoinInput) -> JoinResult:
        """Execute the pipeline and return its JoinResult."""
        cfg = self.config
        r, s = join_input.r, join_input.s
        sim = GPUSimulator(device=cfg.device,
                           cost_model=cost_model_for(cfg.device))
        bits1, bits2 = cfg.resolve_bits(max(len(r), len(s)))
        with join_run(self.name, join_input,
                      meta={"bits_pass1": bits1, "bits_pass2": bits2,
                            "device": cfg.device.name},
                      device=cfg.device.name) as (result, tracer, faults):
            try:
                with tracer.span("partition", algo=self.name) as span:
                    part_r = gbase_partition(r.keys, r.payloads, bits1,
                                             bits2, sim, "r")
                    part_s = gbase_partition(s.keys, s.payloads, bits1,
                                             bits2, sim, "s")
                    span.finish(
                        simulated_seconds=part_r.seconds + part_s.seconds,
                        counters=part_r.counters + part_s.counters,
                    )
                tracer.metrics.histogram("partition.sizes").observe_many(
                    part_r.partitioned.sizes()
                )

                with tracer.span("join", algo=self.name) as span:
                    phase = gbase_join_phase(
                        part_r.partitioned, part_s.partitioned, sim,
                        sublist_capacity=cfg.resolve_sublist_capacity(),
                        output_capacity=cfg.output_capacity,
                    )
                    span.finish(
                        simulated_seconds=phase.seconds,
                        counters=phase.counters,
                        task_count=phase.n_blocks,
                    )

                result.output_count = phase.summary.count
                result.output_checksum = phase.summary.checksum
                result.meta["join_blocks"] = phase.n_blocks
            except UnrecoveredFaultError as exc:
                run_cpu_fallback(result, tracer, faults, exc, join_input,
                                 cfg.output_capacity)
        return result

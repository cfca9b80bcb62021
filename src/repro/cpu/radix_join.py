"""Cbase: the baseline CPU parallel radix join.

A from-scratch implementation of the radix join the paper baselines
against ([16], Balkesen et al., as described in the paper's Section II-B):

* **Partition phase** — two passes.  Pass 1 statically divides the input
  into per-thread segments; each thread scans twice (count, then copy) so
  partitioning is contention free.  Pass 2 treats every pass-1 partition as
  a task in a queue drained by the threads.
* **Skew handling** — partitions much larger than average are broken up
  with additional radix bits (which cannot separate same-key tuples), and
  the join-phase task queue dynamically balances task load.
* **Join phase** — every (R, S) partition pair is a task: build a chained
  hash table over the R partition, probe with the S partition, write
  matches to the worker's output buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cpu.join_phase import join_partition_pairs
from repro.cpu.partition import (
    choose_radix_bits,
    partition_pass,
    refine_pass,
)
from repro.cpu.hashing import hash_keys
from repro.cpu.threads import ThreadPool
from repro.data.relation import JoinInput
from repro.errors import ConfigError
from repro.exec.counters import OpCounters
from repro.exec.cost_model import CPUCostModel, DEFAULT_CPU_COST_MODEL
from repro.exec.output import DEFAULT_CAPACITY
from repro.exec.result import JoinResult
from repro.obs.trace import join_run
from repro.store.spill import current_spill_session


@dataclass(frozen=True)
class CbaseConfig:
    """Tuning knobs for the Cbase radix join."""

    n_threads: int = 20
    #: Target tuples per final partition (cache-sized partitions).
    target_partition_tuples: int = 2048
    #: Explicit pass bit widths; None derives them from the target size.
    bits_pass1: Optional[int] = None
    bits_pass2: Optional[int] = None
    #: Split partitions larger than this multiple of the average size.
    split_factor: float = 4.0
    #: Extra radix bits used when splitting an oversized partition.
    split_bits: int = 2
    output_capacity: int = DEFAULT_CAPACITY
    cost_model: CPUCostModel = DEFAULT_CPU_COST_MODEL

    def __post_init__(self):
        if self.n_threads <= 0:
            raise ConfigError("n_threads must be positive")
        if self.split_factor <= 1.0:
            raise ConfigError("split_factor must exceed 1.0")
        if self.split_bits < 0:
            raise ConfigError("split_bits must be non-negative")

    def resolve_bits(self, n_tuples: int) -> Tuple[int, int]:
        """Radix bit widths for the partition passes."""
        if self.bits_pass1 is not None:
            return self.bits_pass1, self.bits_pass2 or 0
        return choose_radix_bits(n_tuples, self.target_partition_tuples)


class CbaseJoin:
    """The Cbase pipeline: partition (two passes + skew split), then join."""

    name = "cbase"

    def __init__(self, config: CbaseConfig = CbaseConfig()):
        self.config = config
        self.pool = ThreadPool(config.n_threads, config.cost_model)

    def run(self, join_input: JoinInput) -> JoinResult:
        """Execute the pipeline and return its JoinResult."""
        cfg = self.config
        r, s = join_input.r, join_input.s
        bits1, bits2 = cfg.resolve_bits(max(len(r), len(s)))
        with join_run(self.name, join_input,
                      meta={"bits_pass1": bits1, "bits_pass2": bits2}
                      ) as (result, tracer, _):
            metrics = tracer.metrics
            with tracer.span("partition", algo=self.name) as span:
                part_r, part_s, seconds, counters, details = (
                    self._partition_both(
                        r.keys, r.payloads, s.keys, s.payloads, bits1, bits2
                    )
                )
                span.finish(simulated_seconds=seconds, counters=counters,
                            **details)
            metrics.histogram("partition.sizes").observe_many(part_r.sizes())
            metrics.counter("skew.partitions_split").inc(
                int(details.get("split_partitions", 0))
            )

            # Out-of-core gate: with an ambient spill session, oversized
            # partition pairs move to the durable chunk store before the
            # join phase streams them back.  The spill span charges zero
            # simulated seconds and is no phase, so a spilled run keeps
            # the exact phase structure (and trace balance) of the
            # in-RAM run.
            spill = current_spill_session()
            if spill is not None:
                with tracer.span("spill", algo=self.name,
                                 phase=False) as span:
                    part_r, part_s = spill.spill_pair(part_r, part_s,
                                                      label="join")
                    span.finish(
                        simulated_seconds=0.0,
                        spilled_partitions=spill.spilled_partitions,
                    )

            with tracer.span("join", algo=self.name) as span:
                phase = join_partition_pairs(
                    part_r, part_s, self.pool,
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

            result.output_count = phase.summary.count
            result.output_checksum = phase.summary.checksum
            result.meta["join_tasks"] = phase.task_count
            if spill is not None:
                spill.annotate(result)
        return result

    def _partition_both(self, r_keys, r_pays, s_keys, s_pays, bits1, bits2):
        """Partition R and S identically; returns aligned partitions.

        The simulated time adds the R and S passes sequentially, matching
        the original's one-table-at-a-time partition phase.
        """
        cfg = self.config
        seconds = 0.0
        counters = OpCounters()
        details = {}
        partitioned = []
        split_mask = None
        for label, keys, pays in (("r", r_keys, r_pays), ("s", s_keys, s_pays)):
            hashes = hash_keys(keys)
            pass1 = partition_pass(keys, pays, hashes, 0, bits1,
                                   cfg.n_threads)
            seconds += self.pool.static_phase_seconds(pass1.unit_counters)
            counters += pass1.total_counters
            current = pass1.partitioned
            if bits2 > 0:
                pass2 = refine_pass(current, bits1, bits2)
                schedule = self.pool.queue_phase_seconds(pass2.unit_counters)
                seconds += schedule.makespan
                counters += pass2.total_counters
                current = pass2.partitioned
            partitioned.append(current)
        part_r, part_s = partitioned

        # Skew handling: split oversized partitions (decided on R, the
        # build side) with extra radix bits, applied to both inputs so the
        # pair alignment is preserved.
        if cfg.split_bits > 0:
            r_sizes = part_r.sizes()
            avg = max(part_r.n / max(part_r.fanout, 1), 1.0)
            split_mask = r_sizes > cfg.split_factor * avg
            if np.any(split_mask):
                start_bit = bits1 + bits2
                refined = []
                for current in (part_r, part_s):
                    ref = refine_pass(current, start_bit, cfg.split_bits,
                                      refine_mask=split_mask)
                    schedule = self.pool.queue_phase_seconds(ref.unit_counters)
                    seconds += schedule.makespan
                    counters += ref.total_counters
                    refined.append(ref.partitioned)
                part_r, part_s = refined
                details["split_partitions"] = int(split_mask.sum())
        return part_r, part_s, seconds, counters, details

"""Adaptive join: choose skew handling only when the data warrants it.

A natural extension of the paper (its skew steps are free when unused on
the GPU, but CSH's checkup probes and skewed-partition bookkeeping are not
entirely free on the CPU): sample R first, and run plain Cbase when no key
crosses the skew threshold, CSH otherwise.  The sampling cost is charged
either way, so the choice is honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.csh.detector import detect_skewed_keys
from repro.core.csh.pipeline import CSHConfig, CSHJoin
from repro.cpu.radix_join import CbaseConfig, CbaseJoin
from repro.data.relation import JoinInput
from repro.exec.result import JoinResult
from repro.obs.trace import current_tracer


@dataclass(frozen=True)
class AdaptiveConfig:
    """Configuration for the adaptive CPU join."""

    csh: CSHConfig = CSHConfig()
    #: Run CSH only when at least this many skewed keys are detected.
    min_skewed_keys: int = 1

    def cbase_config(self) -> CbaseConfig:
        """Cbase configuration mirroring the CSH tuning."""
        return CbaseConfig(
            n_threads=self.csh.n_threads,
            target_partition_tuples=self.csh.target_partition_tuples,
            bits_pass1=self.csh.bits_pass1,
            bits_pass2=self.csh.bits_pass2,
            output_capacity=self.csh.output_capacity,
            cost_model=self.csh.cost_model,
        )


class AdaptiveJoin:
    """Sample first, then dispatch to Cbase or CSH."""

    name = "adaptive"

    def __init__(self, config: AdaptiveConfig = AdaptiveConfig()):
        self.config = config

    def run(self, join_input: JoinInput) -> JoinResult:
        """Sample R, then run Cbase (no skew) or CSH (skew detected)."""
        cfg = self.config
        with current_tracer().span("probe-sample", algo=self.name) as span:
            detection = detect_skewed_keys(
                join_input.r.keys,
                sample_rate=cfg.csh.sample_rate,
                freq_threshold=cfg.csh.freq_threshold,
                seed=cfg.csh.sample_seed,
            )
            span.finish(
                simulated_seconds=(
                    cfg.csh.cost_model.seconds(detection.counters)
                    / cfg.csh.n_threads),
                counters=detection.counters,
                skewed_keys=float(detection.n_skewed),
            )
        sample_phase = span.phase_result

        if detection.n_skewed >= cfg.min_skewed_keys:
            inner = CSHJoin(cfg.csh).run(join_input)
            chosen = "csh"
            # CSH re-samples internally with the same seed and rate; drop
            # its sample phase in favour of ours to avoid double counting.
            inner.phases = [p for p in inner.phases if p.name != "sample"]
        else:
            inner = CbaseJoin(cfg.cbase_config()).run(join_input)
            chosen = "cbase"

        result = JoinResult(
            algorithm=self.name,
            n_r=inner.n_r,
            n_s=inner.n_s,
            output_count=inner.output_count,
            output_checksum=inner.output_checksum,
            phases=[sample_phase, *inner.phases],
            meta={**inner.meta, "chosen": chosen,
                  "skewed_keys": detection.n_skewed},
        )
        return result

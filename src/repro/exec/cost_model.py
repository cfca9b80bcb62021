"""Cost models that convert operation counters into simulated seconds.

The paper evaluates wall-clock time on a 2x Xeon E5-2640 v4 (20 threads
used) and an NVIDIA A100-PCIE-40GB.  Pure Python cannot reproduce those
absolute times, so this library measures *exact operation counts* (see
:mod:`repro.exec.counters`) and prices them with the models below.

The constants are *effective* per-operation times under full parallel
contention, calibrated once against the anchor points of Table I of the
paper and then frozen (see ``benchmarks/bench_table1.py`` for the
paper-vs-model comparison).  Only the relative shape of results — which
algorithm wins, by roughly what factor, and where crossovers fall — is a
claim of this reproduction; absolute seconds are not.

Key calibration anchors (zipf 1.0, 32 M x 32 M tuples):

* Cbase join 7593 s   ~= 3.2e12 output pairs of the hottest key processed
  by a single thread at ~2.4 ns per (chain step + compare + output write).
* CSH sample+partition 941 s ~= 5.2e12 skewed pairs spread evenly over 20
  threads at ~3.6 ns per (sequential R read + output write).
* Gbase join 643 s    ~= the hottest partition's sub-list blocks paying an
  atomic + sync-amortized cost per pair.
* GSH "all other" 54.5 s ~= bandwidth-bound skew kernel moving ~12 bytes
  per pair at near-peak device bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.exec.counters import OpCounters

_NS = 1e-9


@dataclass(frozen=True)
class CPUCostModel:
    """Effective per-operation costs for one CPU worker thread.

    All values are nanoseconds per operation, calibrated under 20-thread
    memory-bandwidth contention on the paper's machine (DDR4-2133).
    """

    hash_ns: float = 2.0
    insert_ns: float = 4.0
    chain_step_ns: float = 1.0
    compare_ns: float = 0.5
    tuple_move_ns: float = 18.0
    seq_read_ns: float = 2.0
    output_write_ns: float = 1.0
    sample_ns: float = 8.0
    random_access_ns: float = 150.0
    #: Fixed cost per task dispatched through a task queue (dequeue + setup).
    task_overhead_ns: float = 2000.0

    def seconds(self, counters: OpCounters) -> float:
        """Price one worker's operation counts in seconds."""
        return _NS * (
            counters.hash_ops * self.hash_ns
            + counters.table_inserts * self.insert_ns
            + counters.chain_steps * self.chain_step_ns
            + counters.key_compares * self.compare_ns
            + counters.tuple_moves * self.tuple_move_ns
            + counters.seq_tuple_reads * self.seq_read_ns
            + counters.output_tuples * self.output_write_ns
            + counters.sample_ops * self.sample_ns
            + counters.random_accesses * self.random_access_ns
        )

    def task_seconds(self, counters: OpCounters) -> float:
        """Like :meth:`seconds` plus the fixed per-task dispatch overhead."""
        return self.seconds(counters) + self.task_overhead_ns * _NS


@dataclass(frozen=True)
class GPUCostModel:
    """Effective per-operation costs for one GPU thread block.

    Bulk traffic is priced against the device bandwidth (scaled by
    ``bandwidth_efficiency``); latency-bound operations (chain walks,
    atomics, block barriers) carry per-operation costs that already
    account for warp-level latency hiding.
    """

    #: Device aggregate memory bandwidth in bytes/second (A100: 1555 GB/s).
    device_bandwidth: float = 1.555e12
    #: Fraction of peak bandwidth bulk kernels achieve in practice.
    bandwidth_efficiency: float = 0.85
    #: Number of streaming multiprocessors sharing the bandwidth.
    sm_count: int = 108

    hash_ns: float = 0.3
    insert_ns: float = 1.5
    #: Per *lockstep* chain step of a block (rounds x longest chain), which
    #: is how divergence serializes the probe loop.
    chain_step_ns: float = 2.0
    compare_ns: float = 0.2
    #: Per write-intention atomic; the high value reflects contention of a
    #: whole block hammering the same bitmap words every chain step.
    atomic_ns: float = 16.0
    sync_ns: float = 30.0
    divergent_step_ns: float = 0.05
    random_access_ns: float = 3.0
    sample_ns: float = 2.0
    #: Fixed cost per kernel launch, seconds.
    kernel_launch_s: float = 5e-6

    def __post_init__(self):
        if self.sm_count <= 0:
            raise ConfigError("sm_count must be positive")
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ConfigError("bandwidth_efficiency must be in (0, 1]")

    @property
    def effective_bandwidth(self) -> float:
        """Achievable aggregate bandwidth in bytes/second."""
        return self.device_bandwidth * self.bandwidth_efficiency

    @property
    def per_sm_bandwidth(self) -> float:
        """One SM's fair share of the achievable bandwidth."""
        return self.effective_bandwidth / self.sm_count

    def block_compute_seconds(self, counters: OpCounters) -> float:
        """Latency/compute cost of one block, excluding bulk traffic."""
        return _NS * (
            counters.hash_ops * self.hash_ns
            + counters.table_inserts * self.insert_ns
            + counters.chain_steps * self.chain_step_ns
            + counters.key_compares * self.compare_ns
            + counters.atomic_ops * self.atomic_ns
            + counters.sync_barriers * self.sync_ns
            + counters.divergent_steps * self.divergent_step_ns
            + counters.random_accesses * self.random_access_ns
            + counters.sample_ops * self.sample_ns
        )

    def block_memory_seconds(self, counters: OpCounters) -> float:
        """Bulk-traffic cost of one block at its fair bandwidth share."""
        bytes_moved = counters.bytes_read + counters.bytes_written
        return bytes_moved / self.per_sm_bandwidth

    def block_seconds(self, counters: OpCounters) -> float:
        """Total cost of one block: compute/latency plus bulk traffic."""
        return self.block_compute_seconds(counters) + self.block_memory_seconds(counters)


#: Default models frozen after calibration against Table I.
DEFAULT_CPU_COST_MODEL = CPUCostModel()
DEFAULT_GPU_COST_MODEL = GPUCostModel()

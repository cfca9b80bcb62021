"""Crash-safe out-of-core spill plane and streaming relation store.

``repro.store`` is the durable substrate under the out-of-core join
path: a chunked on-disk column store with per-chunk checksums and an
fsync'd manifest (:mod:`repro.store.chunks`), the mmap-backed relation
format whose columns page in lazily through an LRU segment cache
(:mod:`repro.store.relations`), an append-only fsync'd checkpoint
ledger with tolerant torn-tail loads (:mod:`repro.store.checkpoint`),
the ``REPRO_MEMORY_BUDGET``-gated partition spiller and its ambient
session (:mod:`repro.store.spill`), the ``repro run --resume`` driver
(:mod:`repro.store.resume`), and the kill-and-resume scenario source
behind ``repro chaos --spill`` (:mod:`repro.store.chaos`), which records
into the one chaos runner of :mod:`repro.faults.chaos`.
"""

from repro.store.chunks import (
    CODEC_ENV,
    CODECS,
    ChunkInfo,
    ChunkStore,
    resolve_codec,
)
from repro.store.checkpoint import CheckpointLedger
from repro.store.relations import (
    PAGE_CACHE_ENV,
    STREAM_CHUNK_ENV,
    MappedRelation,
    RelationStreamWriter,
    SegmentedColumn,
    dataset_bytes,
    open_join_input,
    open_relation_store,
    resolve_page_cache_segments,
    resolve_stream_chunk_tuples,
)
from repro.store.spill import (
    DEFAULT_CHUNK_BYTES,
    MEMORY_BUDGET_ENV,
    SPILL_CHUNK_BYTES_ENV,
    SPILL_DIR_ENV,
    SpilledPartitionedRelation,
    SpillSession,
    current_spill_session,
    memory_budget_from_env,
    open_spill_session,
)
from repro.store.resume import load_run_state, resume_run, write_run_state

__all__ = [
    "CODEC_ENV",
    "CODECS",
    "ChunkInfo",
    "ChunkStore",
    "CheckpointLedger",
    "DEFAULT_CHUNK_BYTES",
    "MEMORY_BUDGET_ENV",
    "MappedRelation",
    "PAGE_CACHE_ENV",
    "RelationStreamWriter",
    "SPILL_CHUNK_BYTES_ENV",
    "SPILL_DIR_ENV",
    "STREAM_CHUNK_ENV",
    "SegmentedColumn",
    "SpillSession",
    "SpilledPartitionedRelation",
    "current_spill_session",
    "dataset_bytes",
    "load_run_state",
    "memory_budget_from_env",
    "open_join_input",
    "open_relation_store",
    "open_spill_session",
    "resolve_codec",
    "resolve_page_cache_segments",
    "resolve_stream_chunk_tuples",
    "resume_run",
    "write_run_state",
]

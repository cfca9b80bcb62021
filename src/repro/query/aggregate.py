"""Aggregation operators: group-by and scalar aggregates.

The canonical "upper level query operator" consuming join output in the
paper's volcano setup.  Aggregation is streaming: each input batch folds
into the running state, so the full join output is never buffered —
matching the overwritten-output-buffer discipline of the experiments.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.query.batch import Batch
from repro.query.operators import Operator

#: Supported aggregate functions.
AGG_FUNCTIONS = ("count", "sum", "min", "max")


class GroupByAggregate(Operator):
    """Group rows by one column and compute aggregates per group.

    ``aggs`` maps output column name to ``(function, input column)``;
    ``("count", None)`` counts rows.  Emits one batch with the group keys
    plus one column per aggregate.
    """

    def __init__(self, child: Operator, key: str,
                 aggs: Dict[str, Tuple[str, str]]):
        if key not in child.schema():
            raise ConfigError(f"child has no column {key!r}")
        for name, (fn, col) in aggs.items():
            if fn not in AGG_FUNCTIONS:
                raise ConfigError(f"unknown aggregate {fn!r} for {name!r}")
            if fn != "count" and col not in child.schema():
                raise ConfigError(f"child has no column {col!r}")
        self._child = child
        self._key = key
        self._aggs = dict(aggs)

    def schema(self) -> List[str]:
        """Output column names."""
        return [self._key, *self._aggs]

    def __iter__(self) -> Iterator[Batch]:
        state_keys = np.empty(0, dtype=np.uint64)
        state: Dict[str, np.ndarray] = {name: np.empty(0, dtype=np.int64)
                                        for name in self._aggs}
        for batch in self._child:
            keys = batch.column(self._key).astype(np.uint64)
            uniq, inv = np.unique(keys, return_inverse=True)
            partial: Dict[str, np.ndarray] = {}
            for name, (fn, col) in self._aggs.items():
                partial[name] = _reduce(fn, col, batch, uniq.size, inv)
            state_keys, state = _merge(state_keys, state, uniq, partial,
                                       self._aggs)
        if state_keys.size == 0:
            yield Batch.empty(self.schema())
            return
        out = {self._key: state_keys}
        out.update(state)
        yield Batch(out)


class ScalarAggregate(Operator):
    """Whole-input aggregates: one output row."""

    def __init__(self, child: Operator, aggs: Dict[str, Tuple[str, str]]):
        for name, (fn, col) in aggs.items():
            if fn not in AGG_FUNCTIONS:
                raise ConfigError(f"unknown aggregate {fn!r} for {name!r}")
            if fn != "count" and col not in child.schema():
                raise ConfigError(f"child has no column {col!r}")
        self._child = child
        self._aggs = dict(aggs)

    def schema(self) -> List[str]:
        """Output column names."""
        return list(self._aggs)

    def __iter__(self) -> Iterator[Batch]:
        totals: Dict[str, int] = {}
        for batch in self._child:
            for name, (fn, col) in self._aggs.items():
                value = _scalar_reduce(fn, col, batch)
                if value is None:
                    continue
                if name not in totals:
                    totals[name] = value
                elif fn in ("count", "sum"):
                    totals[name] += value
                elif fn == "min":
                    totals[name] = min(totals[name], value)
                else:
                    totals[name] = max(totals[name], value)
        yield Batch({name: np.asarray([totals.get(name, 0)], dtype=np.int64)
                     for name in self._aggs})


class TopK(Operator):
    """Keep the k rows with the largest (or smallest) value of a column."""

    def __init__(self, child: Operator, by: str, k: int,
                 descending: bool = True):
        if k < 0:
            raise ConfigError("k must be non-negative")
        if by not in child.schema():
            raise ConfigError(f"child has no column {by!r}")
        self._child = child
        self._by = by
        self._k = k
        self._descending = descending

    def schema(self) -> List[str]:
        """Output column names."""
        return self._child.schema()

    def __iter__(self) -> Iterator[Batch]:
        buffered = self._child.collect()
        if len(buffered) == 0:
            yield buffered
            return
        values = buffered.column(self._by)
        order = np.argsort(values, kind="stable")
        if self._descending:
            order = order[::-1]
        order = order[:self._k]
        yield Batch({name: col[order]
                     for name, col in buffered.columns.items()})


def _reduce(fn: str, col: str, batch: Batch, n_groups: int,
            inv: np.ndarray) -> np.ndarray:
    if fn == "count":
        return np.bincount(inv, minlength=n_groups).astype(np.int64)
    values = batch.column(col).astype(np.int64)
    if fn == "sum":
        # Every group is non-empty (``inv`` comes from np.unique), so
        # group g's values start at its first position in inv order.
        order = np.argsort(inv, kind="stable")
        starts = np.searchsorted(inv[order], np.arange(n_groups))
        return np.add.reduceat(values[order], starts)
    if fn == "min":
        out = np.full(n_groups, np.iinfo(np.int64).max)
        np.minimum.at(out, inv, values)
        return out
    out = np.full(n_groups, np.iinfo(np.int64).min)
    np.maximum.at(out, inv, values)
    return out


def _scalar_reduce(fn: str, col: str, batch: Batch):
    if fn == "count":
        return len(batch)
    if len(batch) == 0:
        return None
    values = batch.column(col).astype(np.int64)
    if fn == "sum":
        return int(values.sum())
    if fn == "min":
        return int(values.min())
    return int(values.max())


def _merge(state_keys, state, new_keys, partial, aggs):
    """Merge per-batch partial aggregates into the running state."""
    merged_keys = np.union1d(state_keys, new_keys)
    pos_old = np.searchsorted(merged_keys, state_keys)
    pos_new = np.searchsorted(merged_keys, new_keys)
    merged: Dict[str, np.ndarray] = {}
    for name, (fn, _col) in aggs.items():
        if fn in ("count", "sum"):
            out = np.zeros(merged_keys.size, dtype=np.int64)
            # Both key sets are unique, so plain fancy-index adds are exact.
            out[pos_old] += state[name]
            out[pos_new] += partial[name]
        elif fn == "min":
            out = np.full(merged_keys.size, np.iinfo(np.int64).max)
            np.minimum.at(out, pos_old, state[name])
            np.minimum.at(out, pos_new, partial[name])
        else:
            out = np.full(merged_keys.size, np.iinfo(np.int64).min)
            np.maximum.at(out, pos_old, state[name])
            np.maximum.at(out, pos_new, partial[name])
        merged[name] = out
    return merged_keys, merged
